// Package core implements the paper's primary contribution: transiently
// consistent network-update scheduling for asynchronous SDNs.
//
// An update replaces an old routing policy (a simple path from a source
// to a destination, optionally through a waypoint) with a new one. The
// controller cannot install the new rules atomically: FlowMod commands
// travel over an asynchronous control channel and take effect in
// arbitrary order. A schedule therefore partitions the switches into
// rounds; within a round updates commute in any order, and rounds are
// separated by OpenFlow barrier request/reply exchanges (see
// internal/controller). A schedule is transiently consistent for a
// property when the property holds in every reachable intermediate
// state — i.e. for every prefix of completed rounds plus every subset
// of the in-flight round.
//
// The package provides the update model (Instance, Schedule), the
// per-state forwarding walk, exact round-safety primitives, and the
// schedulers demonstrated by the paper: WayUp (waypoint enforcement,
// after Ludwig et al., HotNets'14), Peacock (relaxed loop freedom,
// after Ludwig et al., PODC'15), a strong-loop-freedom greedy, the
// one-shot baseline, and exact minimal-round solvers for small
// instances.
//
// An Instance has one representation: a dense index over the switches
// of both paths, with successors, positions and the pending set as
// arrays and a bitset over it. Schedulers, walks, checkers and plan
// derivations keep their working sets the same way — never a map keyed
// by switch (make guard-dense-core) — and a switch ID enters through
// Instance.idx, a binary search.
package core

import (
	"fmt"
	"strings"
)

// Property is a bit set of transient-consistency properties. Properties
// are checked on every reachable intermediate state of a schedule.
type Property uint8

const (
	// NoBlackhole: the forwarding walk from the source never reaches a
	// switch without a matching rule (no transient packet drops).
	NoBlackhole Property = 1 << iota

	// WaypointEnforcement: every forwarding walk that reaches the
	// destination traverses the waypoint first (the paper's
	// "transiently secure" property; firewalls/IDS are never bypassed).
	WaypointEnforcement

	// RelaxedLoopFreedom: the forwarding walk from the source never
	// revisits a switch. Stale rules at switches no longer reachable
	// from the source may form loops (the PODC'15 relaxation).
	RelaxedLoopFreedom

	// StrongLoopFreedom: no directed cycle exists anywhere in the
	// combined rule graph, reachable or not.
	StrongLoopFreedom
)

// Has reports whether p includes every property of q.
func (p Property) Has(q Property) bool { return p&q == q }

// String renders the property set, e.g. "NoBlackhole|WaypointEnforcement".
func (p Property) String() string {
	if p == 0 {
		return "None"
	}
	var parts []string
	for _, e := range []struct {
		bit  Property
		name string
	}{
		{NoBlackhole, "NoBlackhole"},
		{WaypointEnforcement, "WaypointEnforcement"},
		{RelaxedLoopFreedom, "RelaxedLoopFreedom"},
		{StrongLoopFreedom, "StrongLoopFreedom"},
	} {
		if p.Has(e.bit) {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// ParseProperty maps a wire/CLI property name ("no-blackhole",
// "waypoint", "relaxed-lf", "strong-lf") to its Property bit.
func ParseProperty(name string) (Property, error) {
	switch strings.TrimSpace(name) {
	case "no-blackhole":
		return NoBlackhole, nil
	case "waypoint":
		return WaypointEnforcement, nil
	case "relaxed-lf":
		return RelaxedLoopFreedom, nil
	case "strong-lf":
		return StrongLoopFreedom, nil
	}
	return 0, fmt.Errorf("core: unknown property %q", name)
}

// ParseProperties folds a list of property names into one bit set.
func ParseProperties(names []string) (Property, error) {
	var p Property
	for _, n := range names {
		bit, err := ParseProperty(n)
		if err != nil {
			return 0, err
		}
		p |= bit
	}
	return p, nil
}
