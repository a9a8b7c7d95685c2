// Package topo stands in for the tree's topology types.
package topo

// NodeID names a switch.
type NodeID uint64
