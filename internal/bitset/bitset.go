// Package bitset provides a small, fixed-capacity bitset used for
// directory sharer lists and for the MyProducers/MyConsumers dependence
// registers of Rebound (one bit per processor, §3.3.1 of the paper).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a growable set of small non-negative integers. The zero
// value is an empty set ready to use.
type Bitset struct {
	words []uint64
}

// New returns a bitset sized to hold at least n bits.
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (b *Bitset) ensure(i int) {
	w := i / wordBits
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	b.ensure(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	if i < 0 || i/wordBits >= len(b.words) {
		return
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i/wordBits >= len(b.words) {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset removes all elements without releasing storage.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Or adds every element of o to b.
func (b *Bitset) Or(o *Bitset) {
	if o == nil {
		return
	}
	for i, w := range o.words {
		if w == 0 {
			continue
		}
		b.ensure(i*wordBits + wordBits - 1)
		b.words[i] |= w
	}
}

// AndNot removes every element of o from b.
func (b *Bitset) AndNot(o *Bitset) {
	if o == nil {
		return
	}
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &^= o.words[i]
	}
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*wordBits + bit)
			w &^= 1 << uint(bit)
		}
	}
}

// Elems returns the elements in ascending order.
func (b *Bitset) Elems() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Clone returns a deep copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom makes b an exact copy of o, reusing b's storage when possible.
func (b *Bitset) CopyFrom(o *Bitset) {
	if cap(b.words) < len(o.words) {
		b.words = make([]uint64, len(o.words))
	} else {
		b.words = b.words[:len(o.words)]
	}
	copy(b.words, o.words)
}

// Equal reports whether the two sets hold the same elements.
func (b *Bitset) Equal(o *Bitset) bool {
	n := len(b.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var bw, ow uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if i < len(o.words) {
			ow = o.words[i]
		}
		if bw != ow {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one element.
func (b *Bitset) Intersects(o *Bitset) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Words returns the set's word array, shared with the set, at its exact
// storage length: the persistent-snapshot codec writes it so a
// re-captured snapshot is byte-identical (Equal treats missing high
// words as zero, but the bytes need the length too).
func (b *Bitset) Words() []uint64 { return b.words }

// FromWords returns the set whose word array is w, adopting w.
func FromWords(w []uint64) *Bitset { return &Bitset{words: w} }

// String renders the set as {1, 5, 9}.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	})
	sb.WriteByte('}')
	return sb.String()
}
