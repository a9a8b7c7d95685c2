package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the harness makes into a
// layer. Spans of one op share its op id; parent is the index of the
// enclosing span (-1 for the op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// ref names an open span; the zero ref is "not recording" and every
// method on it is a no-op, which is how an untraced op (or an untraced
// run) skips its whole subtree.
type ref struct {
	r   *recorder
	idx int
	op  int
}

// root opens the root span of op. on false returns the zero ref.
func (r *recorder) root(name string, op int, on bool) ref {
	if r == nil || !on {
		return ref{}
	}
	return r.open(name, op, -1)
}

func (r *recorder) open(name string, op, parent int) ref {
	return r.openAt(name, op, parent, time.Now())
}

func (r *recorder) openAt(name string, op, parent int, start time.Time) ref {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(start.Sub(r.t0))})
	idx := len(r.spans) - 1
	r.mu.Unlock()
	return ref{r: r, idx: idx, op: op}
}

// child opens a span under p.
func (p ref) child(name string) ref {
	if p.r == nil {
		return ref{}
	}
	return p.r.open(name, p.op, p.idx)
}

// childAt opens a span under p that began at start — for an interval
// whose beginning is only known once it is over, like "since the
// crash".
func (p ref) childAt(name string, start time.Time) ref {
	if p.r == nil {
		return ref{}
	}
	return p.r.openAt(name, p.op, p.idx, start)
}

// end closes the span and returns its duration (0 when not recording).
func (p ref) end() time.Duration {
	if p.r == nil {
		return 0
	}
	now := int64(time.Since(p.r.t0))
	p.r.mu.Lock()
	s := &p.r.spans[p.idx]
	s.End = now
	d := s.End - s.Start
	p.r.mu.Unlock()
	return time.Duration(d)
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover (children may overlap each other; the covered
// part is the union of their intervals).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
