// Package wirefmt is the one reader and writer of the tree's canonical
// binary format, which the job journal, the plan codec (core.EncodePlan)
// and the planwire payloads are all written in: unsigned varints in
// their minimal encoding, length-prefixed byte strings, and ascending
// index lists delta-coded. Each codec keeps only its schema, its bounds
// and its error sentinel; the bytes are read here, so every value has
// exactly one byte form and decode→encode is the identity.
package wirefmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Decoder is a cursor over wire bytes. The first failure sticks: every
// later read returns a zero value, and Err and End report the failure,
// wrapping the codec's sentinel.
type Decoder struct {
	buf []byte
	off int
	err error
	bad error // the codec's sentinel
}

// NewDecoder returns a cursor at the start of buf whose failures wrap
// bad, so a codec's callers match them with errors.Is(err, bad).
func NewDecoder(buf []byte, bad error) Decoder {
	return Decoder{buf: buf, bad: bad}
}

// Fail records a failure, unless one is recorded already: what the
// input breaks, said by the codec's schema. No bytes are left to read
// after it.
func (d *Decoder) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", d.bad, what, d.off)
		d.buf = d.buf[:d.off]
	}
}

// Err is the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// End is the decode's error: the first failure, or bytes left over.
func (d *Decoder) End() error {
	if d.off != len(d.buf) {
		d.Fail(fmt.Sprintf("%d trailing bytes", len(d.buf)-d.off))
	}
	return d.err
}

// Off is the number of bytes read so far.
func (d *Decoder) Off() int { return d.off }

// Take reads the next n bytes, aliasing the input.
func (d *Decoder) Take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf)-d.off {
		d.Fail("truncated")
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Flag reads a boolean byte: 0 or 1, nothing else.
func (d *Decoder) Flag() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail("flag byte above 1")
	}
	return b == 1
}

// Uvarint reads an unsigned varint in its minimal encoding: a longer
// one (a last byte of zero) is a second form of the same value, and is
// refused.
func (d *Decoder) Uvarint() uint64 {
	// Most varints on the wire are one byte: they take this short path.
	if rest := d.buf[d.off:]; len(rest) > 0 && rest[0] < 0x80 {
		d.off++
		return uint64(rest[0])
	}
	return d.uvarint()
}

func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n <= 0:
		d.Fail("truncated or overlong varint")
		return 0
	case n > 1 && d.buf[d.off+n-1] == 0:
		d.Fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

// Len reads a varint no greater than max (max >= 0).
func (d *Decoder) Len(max int) int {
	v := d.Uvarint()
	if v > uint64(max) {
		d.Fail(fmt.Sprintf("varint %d above its bound %d", v, max))
		return 0
	}
	return int(v)
}

// Int reads a varint that is a non-negative int: one past math.MaxInt
// would wrap negative, a second meaning for the encoder's bytes.
func (d *Decoder) Int() int { return d.Len(math.MaxInt) }

// Bytes reads an AppendBytes string of at most max bytes, aliasing the
// input.
func (d *Decoder) Bytes(max int) []byte { return d.Take(d.Len(max)) }

// Indices reads an AppendIndices list onto dst. Every index must be
// below limit; the list is strictly ascending by construction, so it
// holds at most limit of them.
func (d *Decoder) Indices(dst []int, limit int) []int {
	next := 0 // the least the next index can be
	for range d.Len(limit) {
		v := d.Uvarint()
		if v >= uint64(limit-next) {
			d.Fail(fmt.Sprintf("index list reaches its bound %d", limit))
		}
		if d.err != nil {
			break
		}
		dst = append(dst, next+int(v))
		next += int(v) + 1
	}
	return dst
}

// AppendBytes appends b length-prefixed: its length as a varint, then
// its bytes.
func AppendBytes[S string | []byte](buf []byte, b S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendIndices appends a strictly ascending list of non-negative
// indices: its length, then the first index absolute and every later
// one as its gap to the previous minus one.
func AppendIndices(buf []byte, idx []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	for k, i := range idx {
		if k > 0 {
			i -= idx[k-1] + 1
		}
		buf = binary.AppendUvarint(buf, uint64(i))
	}
	return buf
}
