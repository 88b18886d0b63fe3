// Package sig implements the Write Signature (WSIG) of Rebound §3.3.2:
// a 512–1024-bit Bloom filter that encodes the line addresses a
// processor has written (or read exclusively) in the current checkpoint
// interval. Membership tests never produce false negatives; false
// positives merely record non-existing dependences (they can enlarge
// the interaction set, measured in Table 6.1 of the paper).
//
// The package also offers an Exact signature (a set) used to quantify
// the false-positive impact, and a Paired signature that runs both and
// counts disagreements.
package sig

import (
	"fmt"
	"math/bits"
)

// Signature answers "might this processor have written line addr in the
// current interval?".
type Signature interface {
	// Insert records a written line address.
	Insert(addr uint64)
	// Test reports whether addr may have been inserted since the last
	// Clear. Implementations must never return false for an address
	// that was inserted (no false negatives).
	Test(addr uint64) bool
	// Clear empties the signature (done at the start of every
	// checkpoint interval).
	Clear()
	// CopyFrom overwrites the receiver with the contents of src, which
	// must be the same concrete type.
	CopyFrom(src Signature)
}

// Bloom is the hardware-faithful WSIG: k hash functions over a bit
// register, as in Notary's PBX hashing referenced by the paper.
type Bloom struct {
	bitsArr []uint64
	nbits   uint
	k       int
}

// NewBloom returns a Bloom signature with nbits bits (rounded up to a
// multiple of 64; the paper uses 512–1024) and k hash functions.
func NewBloom(nbits, k int) *Bloom {
	if nbits < 64 {
		nbits = 64
	}
	if k < 1 {
		k = 1
	}
	words := (nbits + 63) / 64
	return &Bloom{bitsArr: make([]uint64, words), nbits: uint(words * 64), k: k}
}

// mix implements a splitmix64-style finalizer; distinct seeds give the
// independent hash functions.
func mix(x, seed uint64) uint64 {
	x += 0x9e3779b97f4a7c15 * (seed + 1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Insert records addr.
func (b *Bloom) Insert(addr uint64) {
	for i := 0; i < b.k; i++ {
		bit := mix(addr, uint64(i)) % uint64(b.nbits)
		b.bitsArr[bit/64] |= 1 << (bit % 64)
	}
}

// Test reports possible membership.
func (b *Bloom) Test(addr uint64) bool {
	for i := 0; i < b.k; i++ {
		bit := mix(addr, uint64(i)) % uint64(b.nbits)
		if b.bitsArr[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter.
func (b *Bloom) Clear() {
	for i := range b.bitsArr {
		b.bitsArr[i] = 0
	}
}

// CopyFrom copies another Bloom's bits.
func (b *Bloom) CopyFrom(src Signature) {
	s := src.(*Bloom)
	copy(b.bitsArr, s.bitsArr)
	b.nbits, b.k = s.nbits, s.k
}

// PopCount returns the number of set bits (occupancy), useful for
// estimating the false-positive rate.
func (b *Bloom) PopCount() int {
	n := 0
	for _, w := range b.bitsArr {
		n += bits.OnesCount64(w)
	}
	return n
}

// Exact is an idealised signature with no false positives, used as the
// measurement baseline for Table 6.1 row 1. It is an open-addressing
// hash set over a reusable power-of-two slot array: steady-state
// Insert/Test/Clear are allocation-free (a Go map would re-bucket and
// allocate on the insert path, which runs once per store).
type Exact struct {
	slots   []uint64 // 0 marks an empty slot
	n       int      // occupied slots
	hasZero bool     // address 0, which cannot use the 0-is-empty code
}

const exactMinSlots = 64

// NewExact returns an empty exact signature.
func NewExact() *Exact { return &Exact{slots: make([]uint64, exactMinSlots)} }

// Insert records addr.
func (e *Exact) Insert(addr uint64) {
	if addr == 0 {
		e.hasZero = true
		return
	}
	if 4*(e.n+1) > 3*len(e.slots) { // keep load factor <= 3/4
		e.grow()
	}
	mask := uint64(len(e.slots) - 1)
	for i := mix(addr, 0) & mask; ; i = (i + 1) & mask {
		switch e.slots[i] {
		case 0:
			e.slots[i] = addr
			e.n++
			return
		case addr:
			return
		}
	}
}

func (e *Exact) grow() {
	old := e.slots
	e.slots = make([]uint64, 2*len(old))
	e.n = 0
	for _, a := range old {
		if a != 0 {
			e.Insert(a)
		}
	}
}

// Test reports exact membership.
func (e *Exact) Test(addr uint64) bool {
	if addr == 0 {
		return e.hasZero
	}
	mask := uint64(len(e.slots) - 1)
	for i := mix(addr, 0) & mask; ; i = (i + 1) & mask {
		switch e.slots[i] {
		case 0:
			return false
		case addr:
			return true
		}
	}
}

// Clear empties the signature, keeping the slot array for reuse.
func (e *Exact) Clear() {
	clear(e.slots)
	e.n = 0
	e.hasZero = false
}

// CopyFrom copies another Exact's contents.
func (e *Exact) CopyFrom(src Signature) {
	s := src.(*Exact)
	if cap(e.slots) < len(s.slots) {
		e.slots = make([]uint64, len(s.slots))
	} else {
		e.slots = e.slots[:len(s.slots)]
	}
	copy(e.slots, s.slots)
	e.n = s.n
	e.hasZero = s.hasZero
}

// Len returns the number of distinct inserted addresses.
func (e *Exact) Len() int {
	if e.hasZero {
		return e.n + 1
	}
	return e.n
}

// Paired runs a Bloom filter alongside an exact set and counts the
// tests on which they disagree (Bloom false positives).
type Paired struct {
	Bloom *Bloom
	exact *Exact

	// Tests counts membership queries; FalsePositives counts queries
	// where the Bloom filter said yes but the exact set said no.
	Tests          uint64
	FalsePositives uint64
}

// NewPaired returns a paired signature with the given Bloom geometry.
func NewPaired(nbits, k int) *Paired {
	return &Paired{Bloom: NewBloom(nbits, k), exact: NewExact()}
}

// Insert records addr in both members.
func (p *Paired) Insert(addr uint64) {
	p.Bloom.Insert(addr)
	p.exact.Insert(addr)
}

// Test returns the Bloom answer while accounting disagreements.
func (p *Paired) Test(addr uint64) bool {
	got := p.Bloom.Test(addr)
	p.Tests++
	if got && !p.exact.Test(addr) {
		p.FalsePositives++
	}
	return got
}

// TestExact returns the idealised answer without accounting.
func (p *Paired) TestExact(addr uint64) bool { return p.exact.Test(addr) }

// Clear empties both members (accounting counters are preserved; they
// are cumulative over a run).
func (p *Paired) Clear() {
	p.Bloom.Clear()
	p.exact.Clear()
}

// CopyFrom copies another Paired's filter contents.
func (p *Paired) CopyFrom(src Signature) {
	s := src.(*Paired)
	p.Bloom.CopyFrom(s.Bloom)
	p.exact.CopyFrom(s.exact)
}

// PairedSnapshot is a saved Paired image: both members' contents plus
// the cumulative accounting counters (which Clear preserves and a
// machine snapshot therefore must capture). Save reuses its storage.
type PairedSnapshot struct {
	Bloom          []uint64
	Slots          []uint64
	N              int
	HasZero        bool
	Tests          uint64
	FalsePositives uint64
}

// Save copies the signature state into s.
func (p *Paired) Save(s *PairedSnapshot) {
	s.Bloom = append(s.Bloom[:0], p.Bloom.bitsArr...)
	s.Slots = append(s.Slots[:0], p.exact.slots...)
	s.N, s.HasZero = p.exact.n, p.exact.hasZero
	s.Tests, s.FalsePositives = p.Tests, p.FalsePositives
}

// CheckSnapshot reports whether s fits p's Bloom geometry and holds a
// well-formed exact set: a power-of-two slot array whose occupied-slot
// count is N and leaves at least one slot empty.
func (p *Paired) CheckSnapshot(s *PairedSnapshot) error {
	if len(s.Bloom) != len(p.Bloom.bitsArr) {
		return fmt.Errorf("sig: snapshot Bloom holds %d words, filter has %d", len(s.Bloom), len(p.Bloom.bitsArr))
	}
	n := 0
	for _, a := range s.Slots {
		if a != 0 {
			n++
		}
	}
	if k := len(s.Slots); k == 0 || k&(k-1) != 0 || n != s.N || n == k {
		return fmt.Errorf("sig: snapshot exact set has %d slots, %d occupied, header says %d", k, n, s.N)
	}
	return nil
}

// Load restores the signature state from s. The Bloom geometry must
// match the capture; the exact set's slot array adopts the captured
// length (capacity differences between machines are invisible to
// membership semantics).
func (p *Paired) Load(s *PairedSnapshot) {
	if len(s.Bloom) != len(p.Bloom.bitsArr) {
		panic("sig: snapshot Bloom geometry mismatch")
	}
	copy(p.Bloom.bitsArr, s.Bloom)
	if cap(p.exact.slots) < len(s.Slots) {
		p.exact.slots = make([]uint64, len(s.Slots))
	} else {
		p.exact.slots = p.exact.slots[:len(s.Slots)]
	}
	copy(p.exact.slots, s.Slots)
	p.exact.n, p.exact.hasZero = s.N, s.HasZero
	p.Tests, p.FalsePositives = s.Tests, s.FalsePositives
}

var (
	_ Signature = (*Bloom)(nil)
	_ Signature = (*Exact)(nil)
	_ Signature = (*Paired)(nil)
)
