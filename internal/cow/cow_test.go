package cow

import (
	"reflect"
	"testing"
)

type span struct{ lo, hi int }

func collect(d *Dirty, n int) []span {
	var out []span
	d.Pages(n, func(lo, hi int) { out = append(out, span{lo, hi}) })
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
