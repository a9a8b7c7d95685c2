//go:build !race

package ofconn

import (
	"testing"

	"tsu/internal/openflow"
)

// TestReadMessageAllocs pins the read path at the decoded messages:
// reading a FlowMod + barrier burst through a Conn allocates what
// decoding the two frames allocates, and no header or frame buffer.
func TestReadMessageAllocs(t *testing.T) {
	fm := &openflow.FlowMod{
		Match:    openflow.ExactNWDst([]byte{10, 0, 0, 2}),
		Command:  openflow.FlowModify,
		Priority: 100,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 3}},
	}
	fm.SetXid(1)
	barrier := &openflow.BarrierRequest{}
	barrier.SetXid(2)
	var frames [][]byte
	var burst []byte
	for _, m := range []openflow.Message{fm, barrier} {
		wire, err := openflow.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, wire)
		burst = append(burst, wire...)
	}

	decoded := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			if _, err := openflow.Decode(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	sc := &streamConn{}
	c := New(sc)
	read := testing.AllocsPerRun(200, func() {
		sc.stream = burst
		for range frames {
			if _, err := c.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if read > decoded {
		t.Fatalf("reading a FlowMod + barrier burst = %.1f allocs, decoding its frames = %.1f: the read path allocates %.1f of its own",
			read, decoded, read-decoded)
	}
}

// TestNewAfterReleaseAllocs: a connection opened after another released
// its read buffer takes that buffer from the pool and allocates only
// itself.
func TestNewAfterReleaseAllocs(t *testing.T) {
	sc := &streamConn{}
	New(sc).Release()
	if got := testing.AllocsPerRun(200, func() { New(sc).Release() }); got > 1 {
		t.Fatalf("New after a Release = %.1f allocs, want 1 (the Conn)", got)
	}
}
