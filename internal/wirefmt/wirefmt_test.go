package wirefmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

var errTest = errors.New("malformed test payload")

// TestDecoderRejects pins every second byte form and every bound the
// cursor refuses, each failure wrapping the codec's sentinel and
// sticking: the read after it returns zero.
func TestDecoderRejects(t *testing.T) {
	cases := map[string]struct {
		data []byte
		read func(d *Decoder)
	}{
		"empty byte":             {nil, func(d *Decoder) { d.Byte() }},
		"flag 2":                 {[]byte{2}, func(d *Decoder) { d.Flag() }},
		"truncated varint":       {[]byte{0x80}, func(d *Decoder) { d.Uvarint() }},
		"overlong varint":        {bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }},
		"non-minimal zero":       {[]byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		"non-minimal one":        {[]byte{0x81, 0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		"int past MaxInt":        {binary.AppendUvarint(nil, math.MaxInt+1), func(d *Decoder) { d.Int() }},
		"int of 2^64-1":          {binary.AppendUvarint(nil, math.MaxUint64), func(d *Decoder) { d.Int() }},
		"len above bound":        {[]byte{4}, func(d *Decoder) { d.Len(3) }},
		"negative take":          {[]byte{1}, func(d *Decoder) { d.Take(-1) }},
		"take past end":          {[]byte{1}, func(d *Decoder) { d.Take(2) }},
		"bytes past end":         {[]byte{2, 'a'}, func(d *Decoder) { d.Bytes(10) }},
		"bytes above bound":      {[]byte{2, 'a', 'b'}, func(d *Decoder) { d.Bytes(1) }},
		"indices count at limit": {[]byte{3, 0, 0, 0}, func(d *Decoder) { d.Indices(nil, 2) }},
		"index at limit":         {[]byte{1, 2}, func(d *Decoder) { d.Indices(nil, 2) }},
		"gap past limit":         {[]byte{2, 0, 1}, func(d *Decoder) { d.Indices(nil, 2) }},
		"gap wrapping int": {append([]byte{2, 5}, binary.AppendUvarint(nil, math.MaxUint64)...),
			func(d *Decoder) { d.Indices(nil, math.MaxInt) }},
		"truncated indices": {[]byte{2, 0}, func(d *Decoder) { d.Indices(nil, 10) }},
		"trailing bytes":    {[]byte{1, 2}, func(d *Decoder) { d.Byte() }},
	}
	for name, tc := range cases {
		d := NewDecoder(tc.data, errTest)
		tc.read(&d)
		err := d.End()
		if !errors.Is(err, errTest) {
			t.Errorf("%s: % x decoded with err=%v, want one wrapping the sentinel", name, tc.data, err)
			continue
		}
		if v := d.Uvarint(); v != 0 || d.Err() != err {
			t.Errorf("%s: a read after the failure returned %d, err %v", name, v, d.Err())
		}
	}
}

// TestDecoderReads reads one of each form back from its writer.
func TestDecoderReads(t *testing.T) {
	buf := []byte{7, 1}
	buf = binary.AppendUvarint(buf, math.MaxUint64)
	buf = binary.AppendUvarint(buf, math.MaxInt)
	buf = AppendBytes(buf, "peacock")
	buf = AppendBytes(buf, []byte{})
	buf = AppendIndices(buf, []int{0, 2, 3, 9})
	buf = AppendIndices(buf, nil)
	d := NewDecoder(buf, errTest)
	if b, f, u, i := d.Byte(), d.Flag(), d.Uvarint(), d.Int(); b != 7 || !f || u != math.MaxUint64 || i != math.MaxInt {
		t.Fatalf("read %d %v %d %d", b, f, u, i)
	}
	if s, e := d.Bytes(7), d.Bytes(0); string(s) != "peacock" || len(e) != 0 {
		t.Fatalf("read strings %q %q", s, e)
	}
	if idx, none := d.Indices(nil, 10), d.Indices(nil, 0); !slices.Equal(idx, []int{0, 2, 3, 9}) || none != nil {
		t.Fatalf("read index lists %v %v", idx, none)
	}
	if err := d.End(); err != nil || d.Off() != len(buf) {
		t.Fatalf("End = %v at %d of %d", err, d.Off(), len(buf))
	}
}

// FuzzDecoder runs a read sequence, one read per byte of ops, over
// data. No read may panic, and whatever the reads accepted must be
// exactly data's prefix written back by the writers: every value the
// cursor accepts has one byte form.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{7, 1, 0x81, 0x01, 3, 'a', 'b', 'c', 2, 1, 0}, []byte{0, 1, 2, 5, 6})
	f.Add([]byte{0x80, 0x00}, []byte{2})
	f.Add(binary.AppendUvarint(nil, math.MaxUint64), []byte{3})
	f.Add([]byte{2, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{6})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		d := NewDecoder(data, errTest)
		var enc []byte
		for _, op := range ops {
			bound := int(op >> 3) // a small bound for the bounded reads
			switch op & 7 {
			case 0:
				enc = append(enc, d.Byte())
			case 1:
				if d.Flag() {
					enc = append(enc, 1)
				} else {
					enc = append(enc, 0)
				}
			case 2:
				enc = binary.AppendUvarint(enc, d.Uvarint())
			case 3:
				enc = binary.AppendUvarint(enc, uint64(d.Int()))
			case 4:
				enc = binary.AppendUvarint(enc, uint64(d.Len(bound)))
			case 5:
				enc = AppendBytes(enc, d.Bytes(bound))
			case 6:
				enc = AppendIndices(enc, d.Indices(nil, bound))
			case 7:
				enc = append(enc, d.Take(bound)...)
			}
			if d.Err() != nil {
				if !errors.Is(d.Err(), errTest) {
					t.Fatalf("failure %v does not wrap the sentinel", d.Err())
				}
				return
			}
		}
		if !bytes.Equal(enc, data[:d.Off()]) {
			t.Fatalf("reads %x of %x wrote back %x", ops, data, enc)
		}
		if d.End() == nil && d.Off() != len(data) {
			t.Fatalf("End accepted %d of %d bytes", d.Off(), len(data))
		}
	})
}
