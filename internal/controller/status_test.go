//go:build !race

package controller

import (
	"testing"
	"time"
)

// The race detector slows the trace's decoding several times over, so
// the wall-clock bound below holds without it only.
// TestStatusOfLongChainIsLinear reads the status of a finished
// 10,000-install chain — a layer, so a round, per install — as GET
// /v1/updates/{id} renders it. Each round is aggregated from its own
// stretch of the trace: rescanning the trace from its start for every
// round took seconds here.
func TestStatusOfLongChainIsLinear(t *testing.T) {
	const n = 10000
	job := newJob(fakePlan("10.9.9.1", 1, 1, n), SubmitOptions{}, nil)
	job.started = time.Unix(0, 0)
	for i := range n {
		at := job.started.Add(time.Duration(i) * time.Millisecond)
		job.confirmed(i, 1, 1, at, at.Add(time.Millisecond))
	}
	job.state = JobDone
	fastest := time.Duration(1 << 62)
	for range 5 {
		start := time.Now()
		st := v1JobStatus(job)
		fastest = min(fastest, time.Since(start))
		if len(st.Installs) != n || len(st.Rounds) != n {
			t.Fatalf("status lists %d installs and %d rounds, want %d each", len(st.Installs), len(st.Rounds), n)
		}
	}
	t.Logf("status of a %d-install chain: %v", n, fastest)
	if fastest > 20*time.Millisecond {
		t.Fatalf("status of a %d-install chain took %v, want under 20ms", n, fastest)
	}
}
