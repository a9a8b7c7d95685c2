package switchsim

import (
	"testing"

	"tsu/internal/metrics"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// TestWipeEmptiesTable pins the crash semantics of the flow table: a
// wipe forgets every entry, and wiping an empty table is a no-op.
func TestWipeEmptiesTable(t *testing.T) {
	tbl := &FlowTable{}
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.1", 100, 1))
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 2))
	if tbl.Len() != 2 {
		t.Fatalf("table has %d entries, want 2", tbl.Len())
	}
	tbl.Wipe()
	if tbl.Len() != 0 {
		t.Fatalf("wiped table has %d entries", tbl.Len())
	}
	tbl.Wipe()
	if tbl.Len() != 0 {
		t.Fatal("double wipe resurrected entries")
	}
}

// TestCrashFiresAtMostOnce pins the switch crash model: the fault
// fires exactly when the configured FlowMod count is reached, wipes
// the table when asked, counts one injected fault — and never fires
// again, so a reconnected switch works normally.
func TestCrashFiresAtMostOnce(t *testing.T) {
	injected := metrics.FaultsInjected.Value()
	f := NewFabric(topo.Linear(1))
	sw, err := NewSwitch(f, Config{Node: 1, Faults: Faults{DisconnectAfterFlowMods: 2, WipeTableOnCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	sw.Table().Apply(fm(openflow.FlowAdd, "10.0.0.1", 100, 1))
	if sw.crashIfDue(1) {
		t.Fatal("crash fired below its threshold")
	}
	if sw.Table().Len() != 1 {
		t.Fatal("table touched before the crash")
	}
	if !sw.crashIfDue(2) {
		t.Fatal("crash did not fire at its threshold")
	}
	if sw.Table().Len() != 0 {
		t.Fatal("crash with WipeTableOnCrash kept the table")
	}
	if got := metrics.FaultsInjected.Value() - injected; got != 1 {
		t.Fatalf("crash injected %d faults, want 1", got)
	}
	// The switch stays up after reconnecting: later installs must not
	// re-trigger the crash.
	if sw.crashIfDue(3) || sw.crashIfDue(2) {
		t.Fatal("crash fired twice")
	}
}

// TestCrashKeepsTableWithoutWipe covers the reconnect-with-state
// variant: the connection dies but the flow table survives.
func TestCrashKeepsTableWithoutWipe(t *testing.T) {
	f := NewFabric(topo.Linear(1))
	sw, err := NewSwitch(f, Config{Node: 1, Faults: Faults{DisconnectAfterFlowMods: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sw.Table().Apply(fm(openflow.FlowAdd, "10.0.0.1", 100, 1))
	if !sw.crashIfDue(1) {
		t.Fatal("crash did not fire")
	}
	if sw.Table().Len() != 1 {
		t.Fatal("crash without WipeTableOnCrash lost the table")
	}
}

// TestCrashDisabledByDefault: the zero fault model never crashes.
func TestCrashDisabledByDefault(t *testing.T) {
	f := NewFabric(topo.Linear(1))
	sw, err := NewSwitch(f, Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 100; n++ {
		if sw.crashIfDue(n) {
			t.Fatalf("zero fault model crashed at flowmod %d", n)
		}
	}
}
