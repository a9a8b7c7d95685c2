package core

import (
	"fmt"
	"sort"
	"sync"
)

// Canonical names of the built-in schedulers. Every dispatch-by-name
// site in the repository goes through this registry; adding a scheduler
// means one Register call in this file (or an init in the scheduler's
// own file) — controllers, CLIs, experiments and examples pick it up
// automatically.
const (
	AlgoWayUp      = "wayup"
	AlgoPeacock    = "peacock"
	AlgoGreedySLF  = "greedy-slf"
	AlgoSequential = "sequential"
	AlgoOneShot    = "oneshot"
	AlgoOptimal    = "optimal"

	// AlgoSynth is the counterexample-guided plan synthesizer
	// (internal/synth). It registers itself from that package's init so
	// core stays free of explorer dependencies; binaries that want it
	// import tsu/internal/synth.
	AlgoSynth = "synth"
)

// Scheduler is the uniform interface over every update algorithm.
//
// Schedule computes a transiently consistent schedule for the instance.
// props requests the property set for parameterized schedulers
// (Sequential, Optimal); fixed-property algorithms (WayUp, Peacock,
// GreedySLF, OneShot) ignore it. props == 0 selects the scheduler's
// default property set.
//
// Applicable is a cheap structural precheck (e.g. WayUp needs a
// waypoint, Optimal a small pending set); Schedule may still fail on an
// applicable instance when the requested properties are infeasible.
type Scheduler interface {
	Schedule(in *Instance, props Property) (*Schedule, error)
	Applicable(in *Instance) bool
}

// SchedulerFunc adapts a plain scheduling function to the Scheduler
// interface; it reports every instance as applicable.
type SchedulerFunc func(in *Instance, props Property) (*Schedule, error)

// Schedule implements Scheduler.
func (f SchedulerFunc) Schedule(in *Instance, props Property) (*Schedule, error) {
	return f(in, props)
}

// Applicable implements Scheduler; always true.
func (f SchedulerFunc) Applicable(*Instance) bool { return true }

// condScheduler pairs a scheduling function with an applicability test.
type condScheduler struct {
	schedule   func(in *Instance, props Property) (*Schedule, error)
	applicable func(in *Instance) bool
}

func (c condScheduler) Schedule(in *Instance, props Property) (*Schedule, error) {
	return c.schedule(in, props)
}

func (c condScheduler) Applicable(in *Instance) bool { return c.applicable(in) }

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Scheduler)
)

// Register adds a scheduler under the given name. It panics on an empty
// name, a nil scheduler, or a duplicate registration — all programmer
// errors caught at init time.
func Register(name string, s Scheduler) {
	if name == "" {
		panic("core: Register with empty scheduler name")
	}
	if s == nil {
		panic("core: Register with nil scheduler")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: scheduler %q registered twice", name))
	}
	registry[name] = s
}

// Lookup returns the scheduler registered under name, or an error
// listing the known names.
func Lookup(name string) (Scheduler, error) {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (registered: %v)", name, Names())
	}
	return s, nil
}

// MustScheduler is Lookup for statically known names; it panics on an
// unknown name.
func MustScheduler(name string) Scheduler {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultAlgorithm picks the scheduler an empty algorithm selector
// resolves to: WayUp when the instance has a waypoint to guard,
// Peacock otherwise.
func DefaultAlgorithm(in *Instance) string {
	if in.Waypoint != 0 {
		return AlgoWayUp
	}
	return AlgoPeacock
}

// ScheduleByName resolves name through the registry ("" selects
// DefaultAlgorithm) and computes the schedule. props == 0 selects the
// scheduler's default property set.
func ScheduleByName(in *Instance, name string, props Property) (*Schedule, error) {
	if name == "" {
		name = DefaultAlgorithm(in)
	}
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.Schedule(in, props)
}

func init() {
	Register(AlgoWayUp, condScheduler{
		schedule:   func(in *Instance, _ Property) (*Schedule, error) { return WayUp(in) },
		applicable: func(in *Instance) bool { return in.Waypoint != 0 },
	})
	// Peacock and GreedySLF carry the PlanScheduler capability: their
	// round constructions are exactly the dependency reasoning
	// SparsePlan prunes edges with (L1/L2 walk arguments, the
	// double-edge test), so they emit genuinely sparse DAGs.
	Register(AlgoPeacock, sparsePlanner{SchedulerFunc(func(in *Instance, _ Property) (*Schedule, error) {
		return Peacock(in)
	})})
	Register(AlgoGreedySLF, sparsePlanner{SchedulerFunc(func(in *Instance, _ Property) (*Schedule, error) {
		return GreedySLF(in)
	})})
	Register(AlgoSequential, SchedulerFunc(func(in *Instance, props Property) (*Schedule, error) {
		if props == 0 { // the walk-based pair the cautious baseline targets
			props = NoBlackhole | RelaxedLoopFreedom
		}
		return Sequential(in, props)
	}))
	Register(AlgoOneShot, SchedulerFunc(func(in *Instance, _ Property) (*Schedule, error) {
		return OneShot(in), nil
	}))
	Register(AlgoOptimal, condScheduler{
		schedule: func(in *Instance, props Property) (*Schedule, error) {
			if props == 0 {
				props = in.NaturalProps()
			}
			return Optimal(in, props)
		},
		applicable: func(in *Instance) bool { return in.NumPending() <= MaxOptimalPending },
	})
}
