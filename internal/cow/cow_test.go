package cow

import (
	"reflect"
	"testing"
)

type span struct{ lo, hi int }

func collect(d *Dirty, n int) []span {
	var out []span
	d.Pages(0, n, func(lo, hi int) { out = append(out, span{lo, hi}) })
	return out
}

func TestDirtyEmpty(t *testing.T) {
	var d Dirty
	if got := collect(&d, 10_000); got != nil {
		t.Fatalf("clean tracker yielded ranges: %v", got)
	}
}

func TestDirtySinglePage(t *testing.T) {
	var d Dirty
	d.Mark(PageSize + 3)
	want := []span{{PageSize, 2 * PageSize}}
	if got := collect(&d, 10*PageSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDirtyAdjacentPagesMerge(t *testing.T) {
	var d Dirty
	d.Mark(0)
	d.Mark(PageSize)
	d.Mark(5 * PageSize)
	want := []span{{0, 2 * PageSize}, {5 * PageSize, 6 * PageSize}}
	if got := collect(&d, 10*PageSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDirtyRunAcrossWordBoundary(t *testing.T) {
	var d Dirty
	// Pages 62..66 span the 64-page word boundary of the bitmap.
	for p := 62; p <= 66; p++ {
		d.Mark(p * PageSize)
	}
	want := []span{{62 * PageSize, 67 * PageSize}}
	if got := collect(&d, 100*PageSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDirtyClipsToLength(t *testing.T) {
	var d Dirty
	d.Mark(3 * PageSize) // partially inside n
	d.Mark(7 * PageSize) // entirely beyond n
	n := 3*PageSize + PageSize/2
	want := []span{{3 * PageSize, n}}
	if got := collect(&d, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDirtyMarkRange(t *testing.T) {
	var d Dirty
	d.MarkRange(PageSize-1, PageSize+1) // straddles pages 0 and 1
	want := []span{{0, 2 * PageSize}}
	if got := collect(&d, 4*PageSize); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDirtyMarkAllAndClear(t *testing.T) {
	var d Dirty
	d.MarkAll()
	if got := collect(&d, 100); !reflect.DeepEqual(got, []span{{0, 100}}) {
		t.Fatalf("MarkAll: got %v", got)
	}
	d.Clear()
	if got := collect(&d, 100); got != nil {
		t.Fatalf("after Clear: got %v", got)
	}
	d.Mark(0)
	if got := collect(&d, 100); !reflect.DeepEqual(got, []span{{0, 100}}) {
		t.Fatalf("Mark after Clear: got %v", got)
	}
}

// TestDirtyPagesRange pins the range-limited walk the snapshot plane's
// parallel restore splits an array with: runs are clipped to [lo, hi),
// cut at the range edges, and the ranges of a split together yield
// exactly the runs of the whole array.
func TestDirtyPagesRange(t *testing.T) {
	var d Dirty
	for _, p := range []int{1, 2, 3, 63, 64, 65, 70} {
		d.Mark(p * PageSize)
	}
	var all Dirty
	all.MarkAll()
	n := 80 * PageSize
	cases := []struct {
		name   string
		d      *Dirty
		lo, hi int
		want   []span
	}{
		{"whole array", &d, 0, n, []span{{PageSize, 4 * PageSize}, {63 * PageSize, 66 * PageSize}, {70 * PageSize, 71 * PageSize}}},
		{"cut inside a run", &d, 2 * PageSize, 64 * PageSize, []span{{2 * PageSize, 4 * PageSize}, {63 * PageSize, 64 * PageSize}}},
		{"starts past the first bitmap word", &d, 64 * PageSize, n, []span{{64 * PageSize, 66 * PageSize}, {70 * PageSize, 71 * PageSize}}},
		{"unaligned edges", &d, 2*PageSize + 5, 3*PageSize + 7, []span{{2*PageSize + 5, 3*PageSize + 7}}},
		{"clean range", &d, 4 * PageSize, 63 * PageSize, nil},
		{"range past the bitmap", &d, 200 * PageSize, 300 * PageSize, nil},
		{"empty range", &d, 5 * PageSize, 5 * PageSize, nil},
		{"negative lo clips to 0", &d, -PageSize, 2 * PageSize, []span{{PageSize, 2 * PageSize}}},
		{"MarkAll", &all, 3, 17, []span{{3, 17}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []span
			tc.d.Pages(tc.lo, tc.hi, func(lo, hi int) { got = append(got, span{lo, hi}) })
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Pages(%d, %d): got %v want %v", tc.lo, tc.hi, got, tc.want)
			}
		})
	}
	// Split at 2, 64 and 65 pages: the pieces concatenate to the whole
	// array's runs once adjacent pieces are merged.
	var pieces []span
	for _, r := range []span{{0, 2 * PageSize}, {2 * PageSize, 64 * PageSize}, {64 * PageSize, 65 * PageSize}, {65 * PageSize, n}} {
		d.Pages(r.lo, r.hi, func(lo, hi int) {
			if k := len(pieces) - 1; k >= 0 && pieces[k].hi == lo {
				pieces[k].hi = hi
				return
			}
			pieces = append(pieces, span{lo, hi})
		})
	}
	if want := collect(&d, n); !reflect.DeepEqual(pieces, want) {
		t.Fatalf("split walk %v, whole walk %v", pieces, want)
	}
}
