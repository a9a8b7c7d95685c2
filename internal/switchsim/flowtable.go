// Package switchsim simulates OpenFlow software switches (the OVS
// stand-in of the reproduction): each switch speaks what the controller
// sends — HELLO, ECHO, FEATURES, FLOW_MOD, BARRIER and planwire's
// VENDOR messages — over a real TCP control connection, answers any
// other message type with BAD_TYPE, processes control messages strictly
// in order (which is what makes barrier replies meaningful), delays
// rule installation per a configurable latency distribution (after the
// PAM'15 measurements the paper cites), and forwards data-plane probe
// packets across an in-memory fabric wired from the shared topology.
// Rules never expire and keep no counters.
//
// The paper's footnote limits the demo's claims to "the asynchronicity
// of the control channel" — exactly what this simulator reproduces:
// per-switch control latencies make FlowMods take effect out of order
// across switches, while barriers restore inter-round ordering.
package switchsim

import (
	"sort"
	"sync"

	"tsu/internal/openflow"
	"tsu/internal/planwire"
)

// FlowEntry is one installed rule. It never expires and counts no
// hits: nothing in the system asks for either.
type FlowEntry struct {
	Match    openflow.Match
	Priority uint16
	Cookie   uint64
	Actions  []openflow.Action
}

// FlowTable is a single OpenFlow 1.0 flow table with priority matching.
// The zero value is an empty table ready for use. All methods are safe
// for concurrent use (the control loop writes while data-plane probes
// read).
type FlowTable struct {
	mu      sync.RWMutex
	entries []*FlowEntry
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Wipe removes every entry — the flow table of a switch that lost
// power.
func (t *FlowTable) Wipe() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = nil
}

// Apply executes a FlowMod against the table, implementing the OF 1.0
// command semantics on this subset:
//
//   - ADD replaces any entry with identical match and priority;
//   - MODIFY/MODIFY_STRICT update the actions of entries with an equal
//     match (strict also requires equal priority) or insert the flow
//     when none matches, per the specification;
//   - DELETE/DELETE_STRICT remove entries with an equal match (strict
//     also requires equal priority).
//
// It returns an Error message to send back when the FlowMod is
// unacceptable, or nil. A FlowMod asking for an idle or hard timeout,
// or for FLOW_REMOVED, is refused with FLOW_MOD_FAILED/UNSUPPORTED and
// changes nothing: this table never expires a rule and never reports a
// removal, and installing the rule anyway would drop that request
// silently.
func (t *FlowTable) Apply(fm *openflow.FlowMod) *openflow.Error {
	if fm.IdleTimeout != 0 || fm.HardTimeout != 0 || fm.Flags&openflow.FlagSendFlowRem != 0 {
		return flowModFailed(fm, openflow.ErrCodeUnsupported)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch fm.Command {
	case openflow.FlowAdd:
		t.removeLocked(fm.Match, fm.Priority, true)
		t.insertLocked(fm)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		strict := fm.Command == openflow.FlowModifyStrict
		modified := false
		for _, e := range t.entries {
			if e.Match == fm.Match && (!strict || e.Priority == fm.Priority) {
				e.Actions = fm.Actions
				e.Cookie = fm.Cookie
				modified = true
			}
		}
		if !modified {
			t.insertLocked(fm)
		}
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		strict := fm.Command == openflow.FlowDeleteStrict
		t.removeLocked(fm.Match, fm.Priority, strict)
	default:
		return flowModFailed(fm, openflow.ErrCodeBadType)
	}
	return nil
}

// flowModFailed is the FLOW_MOD_FAILED error answering fm.
func flowModFailed(fm *openflow.FlowMod, code uint16) *openflow.Error {
	e := &openflow.Error{ErrType: openflow.ErrTypeFlowModFail, Code: code}
	e.SetXid(fm.Xid())
	return e
}

func (t *FlowTable) insertLocked(fm *openflow.FlowMod) {
	t.entries = append(t.entries, &FlowEntry{
		Match:    fm.Match,
		Priority: fm.Priority,
		Cookie:   fm.Cookie,
		Actions:  fm.Actions,
	})
	// Highest priority first; stable order by insertion for ties.
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

func (t *FlowTable) removeLocked(m openflow.Match, prio uint16, strict bool) {
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.Match == m && (!strict || e.Priority == prio) {
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
}

// Lookup returns the actions of the highest-priority entry covering an
// untagged packet to nwDst; ok is false on a miss.
func (t *FlowTable) Lookup(nwDst uint32) (actions []openflow.Action, ok bool) {
	return t.LookupKey(openflow.UntaggedPacket(nwDst))
}

// LookupKey returns the actions of the highest-priority entry covering
// the packet; ok is false on a table miss. It only reads, so probes
// walking the same switch do not serialize on it.
func (t *FlowTable) LookupKey(k openflow.PacketKey) (actions []openflow.Action, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.Match.CoversKey(k) {
			return e.Actions, true
		}
	}
	return nil, false
}

// rules lists, in table order, every entry whose match pins nwDst,
// tagged or untagged, as a StateReport carries it.
func (t *FlowTable) rules(nwDst uint32) []planwire.Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []planwire.Rule
	for _, e := range t.entries {
		if e.Match.NWDst == nwDst && e.Match.Wildcards&openflow.WildcardNWDstMask == 0 {
			out = append(out, planwire.RuleOf(e.Match, e.Actions))
		}
	}
	return out
}

// Snapshot returns copies of the current entries, for assertions in
// tests.
func (t *FlowTable) Snapshot() []FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FlowEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	return out
}
