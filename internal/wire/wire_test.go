package wire

import (
	"strings"
	"testing"
)

// record is a small format: one section holding a number, an int, a
// byte, a flag and an array of at most four numbers.
type record struct {
	n    uint64
	i    int
	b    byte
	f    bool
	list []uint64
}

func (r *record) code(c *Codec) {
	c.Section("record", func() {
		c.U(&r.n)
		c.Int(&r.i)
		c.Byte(&r.b)
		c.Flag(&r.f)
		c.U64s("list entries", &r.list, 4)
	})
}

func TestRoundTrip(t *testing.T) {
	in := record{n: 1 << 40, i: -300, b: 200, f: true, list: []uint64{0, 127, 128, 1 << 63}}
	w := &Codec{}
	in.code(w)
	var out record
	r := &Codec{Dec: true, B: w.B}
	if out.code(r); r.Err != nil || len(r.B) != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err, len(r.B))
	}
	if out.n != in.n || out.i != in.i || out.b != in.b || out.f != in.f || len(out.list) != len(in.list) {
		t.Fatalf("read %+v, wrote %+v", out, in)
	}
	for k := range in.list {
		if out.list[k] != in.list[k] {
			t.Fatalf("list[%d] = %d, want %d", k, out.list[k], in.list[k])
		}
	}
}

// TestRejects: each damaged encoding fails with the error that names
// its check. Damage before the list leaves the list empty: after the
// first error every read is zero.
func TestRejects(t *testing.T) {
	w := &Codec{}
	(&record{n: 7, list: []uint64{1, 2}}).code(w)
	good := w.B
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := []struct {
		name, want string
		data       []byte
		beforeList bool
	}{
		{"section length beyond the bytes left", "overruns", edit(func(b []byte) []byte { return b[:len(b)-1] }), true},
		{"trailing byte in the section", "trailing", edit(func(b []byte) []byte {
			b[0]++
			return append(b, 0)
		}), false},
		{"flag value 2", "flag value", edit(func(b []byte) []byte {
			b[7] = 2 // after the 4-byte length, n, i and b take one byte each
			return b
		}), true},
		{"list length beyond the limit", "exceed the limit", edit(func(b []byte) []byte {
			b[8] = 5
			return b
		}), true},
		{"list length beyond the bytes left", "overrun", edit(func(b []byte) []byte {
			b[8] = 3
			return b
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out record
			c := &Codec{Dec: true, B: tc.data}
			out.code(c)
			if c.Err == nil || !strings.Contains(c.Err.Error(), tc.want) {
				t.Fatalf("err %v, want one naming %q", c.Err, tc.want)
			}
			if tc.beforeList && len(out.list) != 0 {
				t.Fatalf("list of %d entries read after the error", len(out.list))
			}
		})
	}
}
