package core

// Walker is a reusable scratch context for checking many related rule
// states of one instance without allocating: it owns a rule-state
// bitset, the current forwarding walk, and the per-node bookkeeping the
// incremental re-walk needs. CheckStage's Gray-code enumeration and
// its extension sampler drive it with Flip — toggling one
// switch and re-walking only from the first position whose next hop
// changed — so the amortized cost per checked state is a handful of
// steps instead of a full walk from the source.
//
// The incremental argument: a switch's updated-bit is read exactly once
// per walk, at the switch itself (see nextHopIdx). Flipping switch i
// therefore leaves the walk unchanged unless i lies on it; when it
// does, the prefix up to i is still valid and only the suffix from i
// needs recomputation. Flipping a non-pending switch never changes any
// walk (its bit is never read).
//
// A Walker is single-goroutine scratch; use one per worker. The zero
// value is not usable — construct with NewWalker (and Bind) or
// Instance.NewWalker.
type Walker struct {
	in *Instance
	st State // current rule state (the updated-set)

	path    []int32 // walk as dense node indices, in visit order
	posOf   []int32 // node index -> position in path, -1 when off-walk
	outcome Outcome
	loopAt  int32 // first repeated node when outcome == Looped

	color []uint8 // rule-cycle scratch (strong loop freedom)
	marks []int32 // nodes colored during the last cycle check
}

// NewWalker returns an unbound Walker; Bind attaches it to an instance
// before use. The buffers grow to the largest instance seen and are
// reused across Bind calls — a pool of Walkers amortizes to zero
// allocations.
func NewWalker() *Walker { return &Walker{} }

// NewWalker returns a Walker bound to the instance, reset to the empty
// state.
func (in *Instance) NewWalker() *Walker { return NewWalker().Bind(in) }

// Bind attaches the walker to an instance, growing its buffers as
// needed, and resets it to the empty rule state. Binding to the same
// instance again is equivalent to Reset(nil).
func (w *Walker) Bind(in *Instance) *Walker {
	n := len(in.nodeOf)
	w.in = in
	if cap(w.st) < in.words {
		w.st = make(State, in.words)
	}
	w.st = w.st[:in.words]
	if cap(w.posOf) < n {
		w.posOf = make([]int32, n)
		w.color = make([]uint8, n)
	}
	w.posOf = w.posOf[:n]
	w.color = w.color[:n]
	for i := range w.posOf {
		w.posOf[i] = -1
	}
	w.path = w.path[:0]
	w.Reset(nil)
	return w
}

// Reset sets the walker's rule state to a copy of done (nil: the empty
// state) and recomputes the full walk from the source.
func (w *Walker) Reset(done State) {
	for i := range w.st {
		w.st[i] = 0
	}
	copy(w.st, done)
	for _, i := range w.path {
		w.posOf[i] = -1
	}
	w.path = w.path[:0]
	i := w.in.srcIdx
	w.path = append(w.path, i)
	w.posOf[i] = 0
	w.resume(i)
}

// resume continues the walk from node i, which is already the last
// element of w.path, until it reaches the destination, drops, or loops.
func (w *Walker) resume(i int32) {
	in := w.in
	for {
		if i == in.dstIdx {
			w.outcome = Reached
			return
		}
		next, ok := in.nextHopIdx(i, w.st)
		if !ok {
			w.outcome = Dropped
			return
		}
		if w.posOf[next] >= 0 {
			w.outcome = Looped
			w.loopAt = next
			return
		}
		w.path = append(w.path, next)
		w.posOf[next] = int32(len(w.path) - 1)
		i = next
	}
}

// Flip toggles switch index i (see Instance.NodeIndex) in the rule
// state and incrementally repairs the walk: if i is not on the current
// walk — or is not a pending switch, whose bit is never read — the walk
// is unchanged; otherwise the walk is truncated to i's position and
// recomputed from there. Negative indices are ignored.
func (w *Walker) Flip(i int) {
	if i < 0 {
		return
	}
	if w.st.Has(i) {
		w.st.Clear(i)
	} else {
		w.st.Set(i)
	}
	if !w.in.pendingBits.Has(i) {
		return
	}
	p := w.posOf[i]
	if p < 0 {
		return
	}
	for _, j := range w.path[p+1:] {
		w.posOf[j] = -1
	}
	w.path = w.path[:p+1]
	w.resume(int32(i))
}

// Check evaluates the requested properties in the walker's current rule
// state without allocating — the scratch-buffered equivalent of
// Instance.CheckState on that state.
func (w *Walker) Check(props Property) Property {
	var violated Property
	switch w.outcome {
	case Dropped:
		if props.Has(NoBlackhole) {
			violated |= NoBlackhole
		}
	case Looped:
		if props.Has(RelaxedLoopFreedom) {
			violated |= RelaxedLoopFreedom
		}
	case Reached:
		if props.Has(WaypointEnforcement) && w.in.wpIdx >= 0 && w.posOf[w.in.wpIdx] < 0 {
			violated |= WaypointEnforcement
		}
	}
	if props.Has(StrongLoopFreedom) && w.ruleCycle() {
		violated |= StrongLoopFreedom
	}
	return violated
}

// ruleCycle reports whether the full rule graph of the walker's current
// state contains a directed cycle — Instance.ruleCycle with nothing in
// flight, over the walker's scratch, iterative so it never allocates.
// The rule graph is functional (at most one successor per switch), so
// each white chain is followed once, marking grey on the way down;
// reaching a grey node is a cycle, reaching black or a dead end is not,
// and the visited chain is blackened either way.
func (w *Walker) ruleCycle() bool {
	in := w.in
	n := len(in.nodeOf)
	for i := range w.color {
		w.color[i] = white
	}
	for s := 0; s < n; s++ {
		if w.color[s] != white {
			continue
		}
		w.marks = w.marks[:0]
		j := int32(s)
		for {
			w.color[j] = grey
			w.marks = append(w.marks, j)
			next, ok := in.nextHopIdx(j, w.st)
			if !ok || w.color[next] == black {
				break
			}
			if w.color[next] == grey {
				return true
			}
			j = next
		}
		for _, m := range w.marks {
			w.color[m] = black
		}
	}
	return false
}
