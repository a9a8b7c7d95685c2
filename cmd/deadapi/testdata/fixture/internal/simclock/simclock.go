// Package simclock holds the one timer heap.
package simclock

import "container/heap"

type queue []int

var _ heap.Interface

func (q *queue) pushLocked(x int) { *q = append(*q, x) }
