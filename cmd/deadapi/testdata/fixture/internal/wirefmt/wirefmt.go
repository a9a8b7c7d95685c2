// Package wirefmt stands in for the tree's one varint reader.
package wirefmt

import "encoding/binary"

func uvarint(b []byte) uint64 {
	v, _ := binary.Uvarint(b)
	return v
}
