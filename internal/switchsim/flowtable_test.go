package switchsim

import (
	"net"
	"testing"

	"tsu/internal/openflow"
)

func fm(cmd openflow.FlowModCommand, ip string, prio uint16, port uint16) *openflow.FlowMod {
	return &openflow.FlowMod{
		Match:    openflow.ExactNWDst(net.ParseIP(ip)),
		Command:  cmd,
		Priority: prio,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}
}

func nwDst(ip string) uint32 {
	v4 := net.ParseIP(ip).To4()
	return uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
}

func lookupPort(t *testing.T, tbl *FlowTable, ip string) uint16 {
	t.Helper()
	actions, ok := tbl.Lookup(nwDst(ip))
	if !ok {
		t.Fatalf("lookup %s missed", ip)
	}
	port, ok := openflow.ApplyActions(actions, &openflow.PacketKey{})
	if !ok {
		t.Fatalf("entry for %s has no output action", ip)
	}
	return port
}

func TestFlowTableAddAndLookup(t *testing.T) {
	var tbl FlowTable
	if e := tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3)); e != nil {
		t.Fatal(e)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 3 {
		t.Fatalf("port = %d", got)
	}
	if _, ok := tbl.Lookup(nwDst("10.0.0.9")); ok {
		t.Fatal("miss expected for other flow")
	}
}

func TestFlowTableAddReplacesSameMatchPriority(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3))
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 7))
	if tbl.Len() != 1 {
		t.Fatalf("len = %d, want replacement", tbl.Len())
	}
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 7 {
		t.Fatalf("port = %d", got)
	}
}

func TestFlowTablePriorityOrder(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 10, 1))
	// Wildcard-all entry at higher priority wins.
	wild := &openflow.FlowMod{
		Match:    openflow.Match{Wildcards: openflow.WildcardAll},
		Command:  openflow.FlowAdd,
		Priority: 200,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 9}},
	}
	tbl.Apply(wild)
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 9 {
		t.Fatalf("port = %d, want wildcard winner 9", got)
	}
}

func TestFlowTableModify(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3))
	tbl.Apply(fm(openflow.FlowModify, "10.0.0.2", 100, 5))
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 5 {
		t.Fatalf("port = %d", got)
	}
}

func TestFlowTableModifyInsertsWhenMissing(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowModify, "10.0.0.2", 100, 5))
	if tbl.Len() != 1 {
		t.Fatalf("modify-as-add failed: len = %d", tbl.Len())
	}
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 5 {
		t.Fatalf("port = %d", got)
	}
}

func TestFlowTableModifyStrictRespectsPriority(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3))
	tbl.Apply(fm(openflow.FlowModifyStrict, "10.0.0.2", 50, 5)) // different priority: inserts
	if tbl.Len() != 2 {
		t.Fatalf("len = %d, want 2", tbl.Len())
	}
	if got := lookupPort(t, &tbl, "10.0.0.2"); got != 3 {
		t.Fatalf("port = %d, want higher-priority original", got)
	}
}

func TestFlowTableDelete(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3))
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.3", 100, 4))
	tbl.Apply(fm(openflow.FlowDelete, "10.0.0.2", 0, 0))
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if _, ok := tbl.Lookup(nwDst("10.0.0.2")); ok {
		t.Fatal("deleted entry still matches")
	}
	if got := lookupPort(t, &tbl, "10.0.0.3"); got != 4 {
		t.Fatalf("surviving entry port = %d", got)
	}
}

func TestFlowTableDeleteStrict(t *testing.T) {
	var tbl FlowTable
	tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", 100, 3))
	tbl.Apply(fm(openflow.FlowDeleteStrict, "10.0.0.2", 50, 0)) // wrong priority
	if tbl.Len() != 1 {
		t.Fatal("strict delete with wrong priority removed the entry")
	}
	tbl.Apply(fm(openflow.FlowDeleteStrict, "10.0.0.2", 100, 0))
	if tbl.Len() != 0 {
		t.Fatal("strict delete with right priority kept the entry")
	}
}

func TestFlowTableBadCommand(t *testing.T) {
	var tbl FlowTable
	bad := fm(openflow.FlowModCommand(9), "10.0.0.2", 1, 1)
	bad.SetXid(77)
	oferr := tbl.Apply(bad)
	if oferr == nil {
		t.Fatal("bad command accepted")
	}
	if oferr.Xid() != 77 || oferr.ErrType != openflow.ErrTypeFlowModFail {
		t.Fatalf("error = %+v", oferr)
	}
}

func TestFlowTableConcurrentAccess(t *testing.T) {
	var tbl FlowTable
	done := make(chan bool)
	go func() {
		for i := 0; i < 500; i++ {
			tbl.Apply(fm(openflow.FlowAdd, "10.0.0.2", uint16(i%7+1), uint16(i)))
		}
		done <- true
	}()
	go func() {
		for i := 0; i < 500; i++ {
			tbl.Lookup(nwDst("10.0.0.2"))
			tbl.Snapshot()
			tbl.rules(nwDst("10.0.0.2"))
		}
		done <- true
	}()
	<-done
	<-done
}
