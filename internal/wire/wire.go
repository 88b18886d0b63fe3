// Package wire codes binary persisted formats: varint integers,
// length-prefixed arrays and sections framed by a little-endian uint32
// byte length. One Codec both writes and reads, so a format's layout is
// a single function that serves both directions.
//
// Reading trusts nothing. Every array length is checked against a
// caller's limit and against the bytes left before the caller
// allocates for it, a section must be read exactly, and the first error
// is kept: after it every value and every length reads as zero, so a
// layout checks Err only where it acts on a value.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Codec writes to B or, with Dec set, reads from it. Writing only
// reads the values it is handed.
type Codec struct {
	Dec bool
	B   []byte
	Err error
}

// Fail records a read error, unless one is already recorded, and
// drops the bytes left.
func (c *Codec) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
	c.B = nil
}

// U codes unsigned varints.
func (c *Codec) U(ps ...*uint64) {
	for _, p := range ps {
		switch {
		case !c.Dec:
			c.B = binary.AppendUvarint(c.B, *p)
		case len(c.B) > 0 && c.B[0] < 0x80: // most values fit one byte
			*p, c.B = uint64(c.B[0]), c.B[1:]
		default:
			v, n := binary.Uvarint(c.B)
			if n <= 0 {
				c.Fail("truncated or overlong varint")
				v, n = 0, 0
			}
			*p, c.B = v, c.B[n:]
		}
	}
}

// Int codes signed values as zig-zag varints.
func (c *Codec) Int(ps ...*int) {
	for _, p := range ps {
		v := uint64(*p<<1) ^ uint64(*p>>63)
		if c.U(&v); c.Dec {
			*p = int(v>>1) ^ -int(v&1)
		}
	}
}

// Byte codes bytes as varints.
func (c *Codec) Byte(ps ...*byte) {
	for _, p := range ps {
		v := uint64(*p)
		if c.U(&v); v > 0xff {
			c.Fail("byte value %d", v)
		} else if c.Dec {
			*p = byte(v)
		}
	}
}

// Flag codes bools as the varints 0 and 1.
func (c *Codec) Flag(ps ...*bool) {
	for _, p := range ps {
		v := uint64(0)
		if *p {
			v = 1
		}
		if c.U(&v); v > 1 {
			c.Fail("flag value %d", v)
		} else if c.Dec {
			*p = v == 1
		}
	}
}

// Count codes an array length n. Read, it returns the length after
// checking it against limit and against the bytes left at minBytes
// per element, so an allocation for it is bounded by both.
func (c *Codec) Count(what string, n, limit, minBytes int) int {
	v := uint64(n)
	c.U(&v)
	switch {
	case !c.Dec:
		return n
	case c.Err != nil:
	case v > uint64(limit):
		c.Fail("%d %s exceed the limit of %d", v, what, limit)
	case v > uint64(len(c.B)/minBytes):
		c.Fail("%d %s overrun the %d bytes left", v, what, len(c.B))
	default:
		return int(v)
	}
	return 0
}

// Slice codes the length of *p; read, it allocates *p at that length.
func Slice[T any](c *Codec, what string, p *[]T, limit, minBytes int) {
	if n := c.Count(what, len(*p), limit, minBytes); c.Dec {
		*p = make([]T, n)
	}
}

// U64s codes a length-prefixed array of unsigned varints.
func (c *Codec) U64s(what string, p *[]uint64, limit int) {
	Slice(c, what, p, limit, 1)
	for i := range *p {
		c.U(&(*p)[i])
	}
}

// Raw codes the rest of a section as bytes; read, *p shares the
// input's storage.
func (c *Codec) Raw(p *[]byte) {
	if !c.Dec {
		c.B = append(c.B, *p...)
		return
	}
	*p, c.B = c.B, c.B[len(c.B):]
}

// Section codes a section: a little-endian uint32 byte length, then
// the body fn codes, which must read it exactly.
func (c *Codec) Section(what string, fn func()) {
	if !c.Dec {
		at := len(c.B)
		c.B = append(c.B, 0, 0, 0, 0)
		fn()
		binary.LittleEndian.PutUint32(c.B[at:], uint32(len(c.B)-at-4))
		return
	}
	if c.Err != nil {
		return
	}
	if len(c.B) < 4 || uint64(binary.LittleEndian.Uint32(c.B)) > uint64(len(c.B)-4) {
		c.Fail("%s section overruns the %d bytes left", what, len(c.B))
		return
	}
	end := 4 + int(binary.LittleEndian.Uint32(c.B))
	rest := c.B[end:]
	c.B = c.B[4:end]
	if fn(); len(c.B) != 0 {
		c.Fail("%d trailing bytes in the %s section", len(c.B), what)
	}
	if c.Err == nil {
		c.B = rest
	}
}
