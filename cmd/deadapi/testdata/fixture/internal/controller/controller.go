// Package controller breaks the rules the tree's controller keeps.
package controller

import (
	"fixture/internal/ofconn"
	"fixture/internal/openflow"
)

// resend is a second install writer in another file of the package.
func resend(dp *datapath, b *ofconn.Batch) error {
	return dp.conn.WriteBatch(b)
}

// writeBatch is one more, as a method expression.
var writeBatch = (*ofconn.Conn).WriteBatch

// ping builds a barrier outside the walk.
func ping(b *ofconn.Batch) { b.Add(&openflow.BarrierRequest{}) }
