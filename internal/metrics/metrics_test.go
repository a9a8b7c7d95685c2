package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h, o Histogram
	h.Merge(&o)
	if h.Mean() != 0 {
		t.Fatal("empty histogram must have mean zero")
	}
}

func TestHistogramStats(t *testing.T) {
	var h, lo, hi Histogram
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Record(d)
		if i <= 50 {
			lo.Record(d)
		} else {
			hi.Record(d)
		}
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	lo.Merge(&hi)
	if got := lo.Mean(); got != h.Mean() {
		t.Fatalf("merged halves: mean = %v, want %v", got, h.Mean())
	}
}

func TestHistogramUnsortedInsertions(t *testing.T) {
	var h Histogram
	for _, ms := range []int{50, 10, 90, 30, 70} {
		h.Record(time.Duration(ms) * time.Millisecond)
	}
	if h.Mean() != 50*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Interleave recording and querying: the mean follows every Record.
	h.Record(5 * time.Millisecond)
	if h.Mean() != 42500*time.Microsecond {
		t.Fatalf("mean after Record = %v", h.Mean())
	}
}

func TestRound(t *testing.T) {
	if got := Round(123456 * time.Nanosecond); got != 120*time.Microsecond {
		t.Fatalf("Round(123.456µs) = %v", got)
	}
	if got := Round(2345 * time.Millisecond); got != 2345*time.Millisecond {
		t.Fatalf("Round(2.345s) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("algo", "rounds", "time")
	tbl.AddRow("wayup", 3, 1500*time.Microsecond)
	tbl.AddRow("oneshot", 1, 2.5)
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "algo") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "wayup") || !strings.Contains(lines[2], "1.5ms") {
		t.Fatalf("row: %q", lines[2])
	}
	if !strings.Contains(lines[3], "2.50") {
		t.Fatalf("float row: %q", lines[3])
	}
	// Columns aligned: "rounds" column starts at the same offset.
	idx0 := strings.Index(lines[0], "rounds")
	for _, ln := range lines[2:] {
		if len(ln) < idx0 {
			t.Fatalf("short row %q", ln)
		}
	}
}

func TestTableFprintPropagatesWrites(t *testing.T) {
	tbl := NewTable("a")
	tbl.AddRow(1)
	var sb strings.Builder
	if err := tbl.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("nothing written")
	}
}
