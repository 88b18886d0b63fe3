// Package cow provides the page-granular dirty tracking behind the
// machine snapshot engine's copy-on-write restore. The flat arrays the
// hot path mutates (memory words, directory entries, log keys) are
// logically divided into fixed-size pages; every mutating setter marks
// the page it touches, and a delta restore copies back only the dirty
// pages of the shared warm snapshot instead of the whole array. One
// warmed snapshot thereby fans out to N forked machines: each fork pays
// a single full copy, and every trial after that pays only for the
// pages it actually wrote.
//
// The tracker is deliberately one-sided: it records "may differ from
// the last-loaded snapshot", never "definitely differs". Marking too
// much only costs copies; the correctness obligation is on the mutation
// sites to never miss a mark (growth that appends the fresh-build
// default value is exempt — a grown-but-unmutated tail already holds
// exactly the state a full load would reset it to).
package cow

import "math/bits"

// PageShift selects the page size: 1<<PageShift elements per page.
// 256 elements keeps the per-mark cost to a shift and an OR while
// holding the tracking overhead to one bit per page.
const PageShift = 8

// PageSize is the number of array elements per tracked page.
const PageSize = 1 << PageShift

// Dirty tracks which pages of a flat array may diverge from the
// snapshot it was last loaded from. The zero value is an empty (all
// clean) tracker.
type Dirty struct {
	bits []uint64
	all  bool
}

// Mark records that the page containing element i may have changed.
func (d *Dirty) Mark(i int) {
	if d.all {
		return
	}
	p := i >> PageShift
	w := p >> 6
	for len(d.bits) <= w {
		d.bits = append(d.bits, 0)
	}
	d.bits[w] |= 1 << uint(p&63)
}

// MarkRange records that elements [lo, hi) may have changed.
func (d *Dirty) MarkRange(lo, hi int) {
	if d.all || hi <= lo {
		return
	}
	for p := lo >> PageShift; p <= (hi-1)>>PageShift; p++ {
		w := p >> 6
		for len(d.bits) <= w {
			d.bits = append(d.bits, 0)
		}
		d.bits[w] |= 1 << uint(p&63)
	}
}

// MarkAll records that the entire array may have changed (wholesale
// operations: DetachProc, a full load).
func (d *Dirty) MarkAll() { d.all = true }

// All reports whether the whole array is considered dirty.
func (d *Dirty) All() bool { return d.all }

// Clear resets the tracker to all-clean, keeping its storage. Call
// after a full or delta load, when the live array equals the snapshot.
func (d *Dirty) Clear() {
	clear(d.bits)
	d.all = false
}

// Pages calls fn(lo, hi) for each maximal run of dirty pages, as
// half-open element ranges clipped to [lo, hi). With MarkAll set it
// makes the single call fn(lo, hi). Pages only reads the tracker, so
// calls over disjoint ranges may run concurrently; callers that split
// one array into page-aligned ranges get every run cut at the range
// boundaries and nowhere else.
func (d *Dirty) Pages(lo, hi int, fn func(lo, hi int)) {
	lo = max(lo, 0)
	if hi <= lo {
		return
	}
	if d.all {
		fn(lo, hi)
		return
	}
	first, last := lo>>PageShift, (hi-1)>>PageShift
	runStart, prev := -1, -2
	emit := func() {
		fn(max(runStart<<PageShift, lo), min((prev+1)<<PageShift, hi))
	}
	for wi := first >> 6; wi < len(d.bits) && wi<<6 <= last; wi++ {
		w := d.bits[wi]
		if wi == first>>6 {
			w &^= 1<<uint(first&63) - 1
		}
		for w != 0 {
			p := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if p > last {
				break
			}
			if p != prev+1 {
				if runStart >= 0 {
					emit()
				}
				runStart = p
			}
			prev = p
		}
	}
	if runStart >= 0 {
		emit()
	}
}
