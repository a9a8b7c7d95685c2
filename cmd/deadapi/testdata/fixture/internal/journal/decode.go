package journal

import "encoding/binary"

// decoder is a private varint cursor.
type decoder struct{ buf []byte }

func (d *decoder) uvarint() uint64 {
	v, _ := binary.Uvarint(d.buf)
	return v
}
