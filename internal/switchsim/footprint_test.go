//go:build !race

package switchsim

import (
	"runtime"
	"testing"
	"time"

	"tsu/internal/netem"
	"tsu/internal/topo"
)

// TestFleetFootprint pins what a built switch holds before it dials: a
// switch with Fixed latencies and no faults never draws from its
// latency source, so it never builds math/rand's 4.9 KB generator, and
// a 1,000-switch fleet costs at most 1 KB of heap per switch (6.2 KB
// when every source was seeded up front).
func TestFleetFootprint(t *testing.T) {
	const rows, cols = 25, 40
	fabric := NewFabric(topo.Grid(rows, cols))
	nodes := fabric.Graph().Nodes()
	sws := make([]*Switch, 0, len(nodes))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, node := range nodes {
		sw, err := NewSwitch(fabric, Config{
			Node:           node,
			InstallLatency: netem.Fixed(4 * time.Millisecond),
			CtrlLatency:    netem.Fixed(time.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
		sws = append(sws, sw)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(sws))
	runtime.KeepAlive(sws)
	t.Logf("%d switches: %d B of heap each", len(sws), per)
	if per > 1024 {
		t.Fatalf("a built fixed-latency switch holds %d B of heap, want <= 1024", per)
	}
}
