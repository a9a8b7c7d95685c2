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
// Plan computes a transiently consistent plan for the instance: a
// round scheduler returns its rounds as a layered plan (Layered), the
// synthesizer its DAG. props requests the property set for
// parameterized schedulers (Sequential, Optimal); fixed-property
// algorithms (WayUp, Peacock, GreedySLF, OneShot) ignore it. props == 0
// selects the scheduler's default property set.
//
// Applicable is a cheap structural precheck (e.g. WayUp needs a
// waypoint, Optimal a small pending set); Plan may still fail on an
// applicable instance when the requested properties are infeasible.
type Scheduler interface {
	Plan(in *Instance, props Property) (*Plan, error)
	Applicable(in *Instance) bool
}

// SchedulerFunc adapts a plain planning function to the Scheduler
// interface; it reports every instance as applicable.
type SchedulerFunc func(in *Instance, props Property) (*Plan, error)

// Plan implements Scheduler.
func (f SchedulerFunc) Plan(in *Instance, props Property) (*Plan, error) {
	return f(in, props)
}

// Applicable implements Scheduler; always true.
func (f SchedulerFunc) Applicable(*Instance) bool { return true }

// condScheduler pairs a planning function with an applicability test.
type condScheduler struct {
	plan       func(in *Instance, props Property) (*Plan, error)
	applicable func(in *Instance) bool
}

func (c condScheduler) Plan(in *Instance, props Property) (*Plan, error) {
	return c.plan(in, props)
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

// PlanByName resolves name through the registry ("" selects
// DefaultAlgorithm) and computes an execution plan. props == 0 selects
// the scheduler's default property set. With sparse set the result is
// SparsePlan of the scheduler's plan — the pruned DAG for Peacock and
// GreedySLF, the synthesized DAG itself — otherwise its layered view.
func PlanByName(in *Instance, name string, props Property, sparse bool) (*Plan, error) {
	if name == "" {
		name = DefaultAlgorithm(in)
	}
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	p, err := s.Plan(in, props)
	if err != nil {
		return nil, err
	}
	if sparse {
		return SparsePlan(in, p), nil
	}
	return p.LayeredView(), nil
}

func init() {
	Register(AlgoWayUp, condScheduler{
		plan:       func(in *Instance, _ Property) (*Plan, error) { return WayUp(in) },
		applicable: func(in *Instance) bool { return in.Waypoint != 0 },
	})
	Register(AlgoPeacock, SchedulerFunc(func(in *Instance, _ Property) (*Plan, error) { return Peacock(in) }))
	Register(AlgoGreedySLF, SchedulerFunc(func(in *Instance, _ Property) (*Plan, error) { return GreedySLF(in) }))
	Register(AlgoSequential, SchedulerFunc(func(in *Instance, props Property) (*Plan, error) {
		if props == 0 { // the walk-based pair the cautious baseline targets
			props = NoBlackhole | RelaxedLoopFreedom
		}
		return Sequential(in, props)
	}))
	Register(AlgoOneShot, SchedulerFunc(func(in *Instance, _ Property) (*Plan, error) { return OneShot(in), nil }))
	Register(AlgoOptimal, condScheduler{
		plan: func(in *Instance, props Property) (*Plan, error) {
			if props == 0 {
				props = in.NaturalProps()
			}
			return Optimal(in, props)
		},
		applicable: func(in *Instance) bool { return in.NumPending() <= MaxOptimalPending },
	})
}
