// Package switchsim keeps a heap of its own and the layout knob.
package switchsim

import "container/heap"

// Config configures a switch.
type Config struct {
	// Deprecated: ignored.
	Loops *LoopGroup
}

// Switch is one switch.
type Switch struct{ q queue }

// Loops is the layout knob again.
func (s *Switch) Loops() int { return len(s.q) }

type queue []int

var _ heap.Interface

func (q *queue) pushLocked(x int) { *q = append(*q, x) }
