package topo

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Path is an ordered sequence of switches traversed by a flow, in the
// order packets pass them (as in the paper's REST schema: "the integer
// values are ordered in the list in the way they are passed by the
// network packets along the route").
type Path []NodeID

// ParsePath parses a comma- or whitespace-separated list of datapath
// IDs, e.g. "1,2,3" or "1 2 3".
func ParsePath(s string) (Path, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	if len(fields) == 0 {
		return nil, fmt.Errorf("topo: empty path %q", s)
	}
	p := make(Path, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("topo: bad datapath id %q in path %q", f, s)
		}
		p = append(p, NodeID(v))
	}
	return p, nil
}

// String renders the path as "⟨1 2 3⟩"-style plain text: "1->2->3".
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, n := range p {
		parts[i] = strconv.FormatUint(uint64(n), 10)
	}
	return strings.Join(parts, "->")
}

// Src returns the first node. It panics on an empty path.
func (p Path) Src() NodeID { return p[0] }

// Dst returns the last node. It panics on an empty path.
func (p Path) Dst() NodeID { return p[len(p)-1] }

// Contains reports whether n appears on the path.
func (p Path) Contains(n NodeID) bool {
	return p.Index(n) >= 0
}

// Index returns the position of n on the path, or -1.
func (p Path) Index(n NodeID) int {
	for i, m := range p {
		if m == n {
			return i
		}
	}
	return -1
}

// Simple reports whether the path has no repeated node and at least one
// node.
func (p Path) Simple() bool {
	if len(p) == 0 {
		return false
	}
	// Sort a copy and look for equal neighbours; paths of up to 64
	// nodes are copied to the stack.
	var buf [64]NodeID
	sorted := append(buf[:0], p...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are the same sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants required of a routing
// policy path: simple, at least two nodes (a source and a destination).
func (p Path) Validate() error {
	if len(p) < 2 {
		return fmt.Errorf("topo: path %v needs at least source and destination", p)
	}
	if !p.Simple() {
		return fmt.Errorf("topo: path %v is not simple", p)
	}
	return nil
}
