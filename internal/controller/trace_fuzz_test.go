package controller

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/topo"
)

// fuzzInput hands out a fuzz input's bytes as big-endian values; past
// its end every value is 0.
type fuzzInput []byte

func (b *fuzzInput) next(n int) uint64 {
	var v uint64
	for range n {
		v <<= 8
		if len(*b) > 0 {
			v |= uint64((*b)[0])
			*b = (*b)[1:]
		}
	}
	return v
}

// FuzzJobTrace writes an arbitrary sequence of install and tally records
// into a job's trace — NodeIDs up to 2^64-1, offsets negative, zero or
// large — and holds everything read back from it to a plain-struct
// reference: Installs to the installs written, Messages and the status
// body's counts to the tallies summed per switch, a live and a late
// cursor's events to the reference aggregation, and the whole status
// body to one built from the reference.
func FuzzJobTrace(f *testing.F) {
	ones := binary.BigEndian.AppendUint64(nil, math.MaxUint64)
	f.Add(append(append([]byte{0x10}, ones...), ones...))
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, 1})
	f.Add(append([]byte{0x1a, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfc, 0x18}, ones...))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		type tallied struct {
			sw topo.NodeID
			ms MessageStats
		}
		var (
			installs []InstallTiming
			writes   []func(j *Job)
			depth    int // layers so far: a plan's layers have no gaps
		)
		refTotal, refPer := MessageStats{}, map[topo.NodeID]MessageStats{}
		add := func(sw topo.NodeID, ms MessageStats) {
			m := refPer[sw]
			m.Ctrl, m.Peer = m.Ctrl+ms.Ctrl, m.Peer+ms.Peer
			refPer[sw] = m
			refTotal.Ctrl, refTotal.Peer = refTotal.Ctrl+ms.Ctrl, refTotal.Peer+ms.Peer
		}
		for len(in) > 0 && len(writes) < 256 {
			op := in.next(1)
			if op&1 == 1 {
				r := tallied{sw: topo.NodeID(in.next(8)), ms: MessageStats{Ctrl: int(in.next(4)), Peer: int(in.next(4))}}
				add(r.sw, r.ms)
				writes = append(writes, func(j *Job) { j.tally(r.sw, r.ms) })
				continue
			}
			it := InstallTiming{
				Node:       topo.NodeID(in.next(8)),
				ReleasedBy: topo.NodeID(in.next(8)),
				Started:    time.Duration(in.next(8)),
				Finished:   time.Duration(in.next(8)),
				Layer:      int32(min(int(op>>1&3), depth)),
				FlowMods:   int32(in.next(1) & 31),
				Cleanup:    op&8 != 0,
			}
			depth = max(depth, int(it.Layer)+1)
			counted := op&16 != 0
			if counted {
				add(it.Node, MessageStats{Ctrl: int(it.FlowMods) + 2})
			}
			installs = append(installs, it)
			writes = append(writes, func(j *Job) {
				j.mu.Lock()
				j.logInstallLocked(&it, counted)
				j.wakeLocked()
				j.mu.Unlock()
			})
		}

		layerOf := make([]int, len(installs))
		for i, it := range installs {
			layerOf[i] = int(it.Layer)
		}
		ref := newRefProgress(layerOf)
		for _, it := range installs {
			ref.confirm(it)
		}
		shape := dagShape{installs: len(installs), depth: depth, perLayer: make([]int, depth)}
		for _, l := range layerOf {
			shape.perLayer[l]++
		}
		job := &Job{ID: 1, Algorithm: "fuzz", shape: shape, done: make(chan struct{})}

		live, cur := []string(nil), job.Subscribe()
		for _, w := range writes {
			w(job)
			evs, _ := drainEvents(cur)
			live = append(live, evs...)
		}
		job.mu.Lock()
		job.state = JobDone
		job.mu.Unlock()
		evs, closed := drainEvents(cur)
		live = append(live, evs...)
		late, _ := drainEvents(job.Subscribe())
		want := append(slices.Clip(ref.events), "state=done err=<nil>")
		if !closed || !reflect.DeepEqual(live, want) || !reflect.DeepEqual(late, want) {
			t.Fatalf("events:\nlive %q\nlate %q\nwant %q", live, late, want)
		}

		if got := job.Installs(); !reflect.DeepEqual(got, installs) && len(got)+len(installs) > 0 {
			t.Fatalf("Installs() = %+v, want %+v", got, installs)
		}
		if total, per := job.Messages(); total != refTotal || !reflect.DeepEqual(per, refPer) {
			t.Fatalf("Messages() = %+v %v, want %+v %v", total, per, refTotal, refPer)
		}

		wantSt := api.JobStatus{
			ID: 1, Algorithm: "fuzz", Mode: ModeController.String(), Plan: job.shape.wire(), State: "done",
			Rounds: make([]api.RoundStatus, 0), Installs: make([]api.InstallStatus, 0),
		}
		for i := range ref.timings {
			wantSt.Rounds = append(wantSt.Rounds, v1RoundStatus(&ref.timings[i], nil))
		}
		for i := range installs {
			wantSt.Installs = append(wantSt.Installs, v1InstallStatus(&installs[i]))
		}
		if len(refPer) > 0 {
			wantSt.Messages = &api.MessageCount{Ctrl: refTotal.Ctrl, Peer: refTotal.Peer}
			for sw, m := range refPer {
				wantSt.MessagesPerSwitch = append(wantSt.MessagesPerSwitch, api.MessageCount{Switch: uint64(sw), Ctrl: m.Ctrl, Peer: m.Peer})
			}
			slices.SortFunc(wantSt.MessagesPerSwitch, func(a, b api.MessageCount) int { return cmp.Compare(a.Switch, b.Switch) })
		}
		got, _ := json.Marshal(v1JobStatus(job))
		if wantJSON, _ := json.Marshal(wantSt); string(got) != string(wantJSON) {
			t.Fatalf("status:\n got %s\nwant %s", got, wantJSON)
		}
	})
}
