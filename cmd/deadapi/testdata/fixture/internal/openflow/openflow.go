// Package openflow stands in for the tree's message types.
package openflow

// BarrierRequest is the one message the controller's walk builds.
type BarrierRequest struct{ xid uint32 }
