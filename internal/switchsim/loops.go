package switchsim

import (
	"context"

	"tsu/internal/simclock"
)

// Deprecated: LoopGroup is inert. Every switch's timed duties ride its
// clock's AfterFunc; the name stays until bench/tsubench drops it.
type LoopGroup struct{}

// Deprecated: NewLoopGroup starts nothing and selects nothing.
func NewLoopGroup(context.Context, simclock.Clock, int) *LoopGroup { return &LoopGroup{} }
