package main

import (
	"fmt"
	"math/rand"
	"time"

	"tsu/internal/api"
	"tsu/internal/netem"
	"tsu/internal/topo"
)

// spec is one workload: a fleet, a set of disjoint ladder flows, and
// what one op of the single closed-loop client does to them. One
// client, because two saturate both cores of the box this was sized on
// together with the fleet and the controller, and a saturated run reads
// twice as differently from run to run (bench/README.md).
type spec struct {
	name string
	why  string

	flows int // reroutes per op
	cols  int // grid columns = old-path length

	algorithm string
	plan      string // api.FlowUpdate.Plan
	waypoint  bool   // waypointed ladder (needs cols >= 7)

	install netem.Latency
	ctrl    netem.Latency

	journal     bool
	verifyFirst bool // op starts with a /v1/verify dry run
	prober      bool // one trace.Prober on one seeded flow throughout
	restart     bool // op is a crash-restart cycle

	// opsPerSecond sizes a run: ops = opsPerSecond × -seconds, fixed
	// before the run starts, so the count-based metrics (allocation,
	// retained heap) read the same however fast the box is today. The
	// rates are what this 2-core box sustains, rounded down.
	opsPerSecond float64
}

// lanInstall is what a rule install takes on lan-epochs' and
// durable-bigplan's switches: a few milliseconds, as on hardware, and
// fixed. With zero-latency switches the two workloads were CPU-bound,
// and on the shared box this was sized on the same work costs 10–25 %
// more CPU in some hours than in others: over ten runs their latency
// and rate spread by up to 25 %, and medians an hour apart differed by
// 21 %, while wan-epochs', which mostly waits, stayed within 5 %
// (bench/README.md). At 4 ms two thirds of an op is waiting; what the
// controller's CPU costs is in a traced run's proc.cpu_ms_per_op.
const lanInstall = netem.Fixed(4 * time.Millisecond)

var workloads = []*spec{
	{
		name:  "lan-epochs",
		why:   "16 short reroutes per batch on switches with a fixed 4 ms install: per-job costs (REST, plan, admit, SSE, retention) weigh as much as per-install costs",
		flows: 16, cols: 5,
		algorithm: "peacock", plan: "layered",
		install:      lanInstall,
		opsPerSecond: 42,
	},
	{
		name:  "wan-epochs",
		why:   "PAM'15-shaped switch latencies and a live prober: waiting-bound, so job-layer ceilings and plan depth show and CPU savings do not",
		flows: 16, cols: 7,
		algorithm: "wayup", plan: "layered", waypoint: true,
		install:      netem.Pareto{Scale: time.Millisecond, Alpha: 1.5, Cap: 8 * time.Millisecond},
		ctrl:         netem.Uniform{Min: 200 * time.Microsecond, Max: time.Millisecond},
		prober:       true,
		opsPerSecond: 21.5,
	},
	{
		name:  "durable-bigplan",
		why:   "34-install sparse plans, journal on, verify first: per-install costs (write-ahead, encode, batched writes, acks) dominate per-job costs",
		flows: 4, cols: 32,
		algorithm: "peacock", plan: "sparse",
		install: lanInstall,
		journal: true, verifyFirst: true,
		opsPerSecond: 64,
	},
	{
		name:  "restart-recover",
		why:   "crash at a seeded dispatch boundary, reopen the journal, reconnect, reconcile, resume: the journal and engine read instead of appended",
		flows: 8, cols: 5,
		algorithm: "peacock", plan: "layered",
		install: netem.Fixed(2 * time.Millisecond),
		journal: true, restart: true,
		opsPerSecond: 32,
	},
}

func lookupWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ops returns the fixed op count of a run of the given length.
func (s *spec) ops(seconds int) int {
	return max(int(s.opsPerSecond*float64(seconds)), 2)
}

// flow is one ladder: a pair of adjacent grid rows, the straight path
// along the upper one and the detour through the lower one.
type flow struct {
	nwDst    string
	nwDstInt uint32
	host     string
	straight topo.Path
	detour   topo.Path
	waypoint topo.NodeID // 0 when the workload has none
}

// path returns the flow's path in the given state (0 straight, 1
// detour).
func (f *flow) path(state int) topo.Path {
	if state == 0 {
		return f.straight
	}
	return f.detour
}

// update is the reroute that moves the flow out of state `from`.
func (f *flow) update(s *spec, from int) api.FlowUpdate {
	return api.FlowUpdate{
		OldPath:   api.FromPath(f.path(from)),
		NewPath:   api.FromPath(f.path(1 - from)),
		Waypoint:  uint64(f.waypoint),
		Algorithm: s.algorithm,
		NWDst:     f.nwDst,
		Plan:      s.plan,
	}
}

// buildFlows lays the workload's flows onto topo.Grid(2·flows, cols):
// flow i owns row pair perm[i], so the flows are switch-disjoint and
// the engine runs them concurrently. The seed picks the permutation —
// which rows (and so which dispatch shards and switch latency sources)
// each flow lands on.
func buildFlows(s *spec, seed int64) (*topo.Graph, []flow) {
	n := s.flows
	g := topo.Grid(2*n, s.cols)
	id := func(r, c int) topo.NodeID { return topo.NodeID(r*s.cols + c + 1) }
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	flows := make([]flow, n)
	for i := range flows {
		top, bot := 2*perm[i], 2*perm[i]+1
		f := &flows[i]
		f.nwDstInt = 0x0a000000 | uint32(i+2)
		f.nwDst = fmt.Sprintf("10.0.%d.%d", (i+2)>>8, (i+2)&0xff)
		f.host = fmt.Sprintf("h%d", i)
		for c := 0; c < s.cols; c++ {
			f.straight = append(f.straight, id(top, c))
		}
		if s.waypoint {
			// Down, along, back up through the middle-column waypoint,
			// down again, and up into the destination.
			mid := s.cols / 2
			f.waypoint = id(top, mid)
			f.detour = append(f.detour, id(top, 0))
			for c := 0; c < mid; c++ {
				f.detour = append(f.detour, id(bot, c))
			}
			f.detour = append(f.detour, id(top, mid-1), id(top, mid), id(top, mid+1))
			for c := mid + 1; c < s.cols; c++ {
				f.detour = append(f.detour, id(bot, c))
			}
			f.detour = append(f.detour, id(top, s.cols-1))
		} else {
			f.detour = append(f.detour, id(top, 0))
			for c := 0; c < s.cols; c++ {
				f.detour = append(f.detour, id(bot, c))
			}
			f.detour = append(f.detour, id(top, s.cols-1))
		}
		if err := g.AddHost(topo.Host{Name: f.host, Attach: f.straight.Dst()}); err != nil {
			panic(err) // the destination is a grid node by construction
		}
	}
	return g, flows
}

// batch is the request that moves the flows out of the given states.
func batch(s *spec, flows []flow, states []int) api.BatchUpdateRequest {
	req := api.BatchUpdateRequest{Updates: make([]api.FlowUpdate, len(flows))}
	for i := range flows {
		req.Updates[i] = flows[i].update(s, states[i])
	}
	return req
}

// crashBoundaries draws, per restart cycle, the dispatched-node count
// at which the controller dies. A killed epoch dispatches one node per
// pending switch of each flow — cols+1 towards the detour, cols-1 back
// — so a boundary within flows × (cols-1) fires whatever the mix of
// directions the previous recovery left behind.
func crashBoundaries(s *spec, seed int64, cycles int) []int {
	perFlow := s.cols - 1
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, cycles)
	for i := range out {
		out[i] = 1 + rng.Intn(s.flows*perFlow)
	}
	return out
}
