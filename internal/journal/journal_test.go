package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func sampleAdmit(job int) Record {
	return Record{
		Kind: KindAdmit,
		Job:  job,
		Admit: &Admit{
			Algorithm:   "peacock",
			Interval:    5 * time.Millisecond,
			Mode:        0,
			Recoverable: true,
			Old:         []uint64{1, 2, 3, 7},
			New:         []uint64{1, 4, 5, 7},
			Waypoint:    4,
			NWDst:       0x0a000002,
			Props:       7,
			Cleanup:     []int{4, 6},
			Plan:        []byte{'T', 'S', 'U', 'P', 1, 0},
		},
	}
}

func openTemp(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, path
}

// replayFile returns the records of the journal file at path.
func replayFile(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// reopenState opens the journal at path, returns its fold and closes it.
func reopenState(t *testing.T, path string) State {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.TakeState()
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := openTemp(t)
	recs := []Record{
		sampleAdmit(1),
		{Kind: KindAdmit, Job: 2, Admit: &Admit{Algorithm: "two-phase", Mode: 0}},
		{Kind: KindDispatched, Job: 1, Node: 0},
		{Kind: KindConfirmed, Job: 1, Node: 0},
		{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{2, 3}, Confirmed: []int{1, 5}},
		{Kind: KindTerminal, Job: 2, Done: false, Error: "switch s4 unreachable"},
		{Kind: KindTerminal, Job: 1, Done: true, Confirmed: []int{2, 3}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Kind, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := replayFile(t, path); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed\n %+v\nwant\n %+v", got, recs)
	}
	st := reopenState(t, path)
	if st.Frames != len(recs) || st.LastJob != 2 || len(st.Live) != 0 || len(st.Finished) != 2 {
		t.Fatalf("fold = %+v, want %d frames, both jobs finished", st, len(recs))
	}
	if f := st.Finished[0]; f.ID != 2 || f.Done || f.Error != "switch s4 unreachable" || f.Admit.Algorithm != "two-phase" {
		t.Fatalf("first finished job = %+v", f)
	}
	if f := st.Finished[1]; f.ID != 1 || !f.Done || !reflect.DeepEqual(f.Admit, recs[0].Admit) {
		t.Fatalf("second finished job = %+v", f)
	}
}

// A record without a confirmed list encodes exactly as before the list
// existed, and an empty list on the wire is refused: every record keeps
// one encoding.
func TestJournalTrailingListOptional(t *testing.T) {
	batch := Record{Kind: KindDispatchedBatch, Job: 3, Nodes: []int{0, 2}}
	if got := appendPayload(nil, &batch); !bytes.Equal(got, []byte{5, 3, 2, 0, 1}) {
		t.Fatalf("batch without confirms encodes as %x", got)
	}
	term := Record{Kind: KindTerminal, Job: 3, Done: true}
	if got := appendPayload(nil, &term); !bytes.Equal(got, []byte{4, 3, 1, 0}) {
		t.Fatalf("terminal without confirms encodes as %x", got)
	}
	if _, err := decodeRecord([]byte{5, 3, 2, 0, 1, 0}); !errors.Is(err, ErrJournal) {
		t.Fatalf("empty trailing list decoded: err=%v", err)
	}
	if _, err := decodeRecord([]byte{4, 3, 2, 0}); !errors.Is(err, ErrJournal) {
		t.Fatalf("done byte 2 decoded: err=%v", err)
	}
}

// A torn tail — any truncation of the file after the last intact
// record — must replay the full prefix and never error or panic, and
// Open must truncate the garbage so subsequent appends are readable.
func TestJournalTornTail(t *testing.T) {
	j, path := openTemp(t)
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(magic); cut < len(whole); cut++ {
		data := whole[:cut]
		recs, valid, err := Replay(data)
		if err != nil {
			t.Fatalf("cut=%d: Replay error: %v", cut, err)
		}
		if valid > cut {
			t.Fatalf("cut=%d: valid prefix %d exceeds input", cut, valid)
		}
		// The prefix must be record-aligned: replaying just the valid
		// prefix yields the same records.
		recs2, valid2, err := Replay(data[:valid])
		if err != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("cut=%d: prefix not stable (err=%v valid=%d/%d recs=%d/%d)",
				cut, err, valid2, valid, len(recs2), len(recs))
		}
	}

	// Open on a torn file truncates and appends cleanly after the tail.
	torn := append([]byte(nil), whole[:len(whole)-3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("Open torn: %v", err)
	}
	if n := j2.TakeState().Frames; n != 1 {
		t.Fatalf("torn replay: %d records, want 1 (admit only)", n)
	}
	if err := j2.Append(Record{Kind: KindTerminal, Job: 1, Done: true}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reopenState(t, path).Frames; n != 2 {
		t.Fatalf("after torn-tail append: %d records, want 2", n)
	}
}

// A grouped dispatched delta must round-trip its node list and fold to
// exactly the same dispatched set as the equivalent per-node appends.
func TestJournalDispatchedBatchReplayEquivalence(t *testing.T) {
	nodes := []int{0, 1, 5, 6, 42}

	jb, pathB := openTemp(t)
	if err := jb.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	if err := jb.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: nodes, Confirmed: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}

	jp, pathP := openTemp2(t)
	if err := jp.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := jp.Append(Record{Kind: KindDispatched, Job: 1, Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 1} {
		if err := jp.Append(Record{Kind: KindConfirmed, Job: 1, Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}

	batched, perNode := reopenState(t, pathB), reopenState(t, pathP)
	if len(batched.Live) != 1 || len(perNode.Live) != 1 {
		t.Fatalf("live jobs: batch=%d per-node=%d, want 1", len(batched.Live), len(perNode.Live))
	}
	b, p := batched.Live[0], perNode.Live[0]
	if !slices.Equal(members(b.Dispatched), nodes) || !slices.Equal(members(p.Dispatched), nodes) {
		t.Fatalf("dispatched: batch=%v per-node=%v, want %v", members(b.Dispatched), members(p.Dispatched), nodes)
	}
	if !slices.Equal(members(b.Confirmed), []int{0, 1}) || !slices.Equal(members(p.Confirmed), []int{0, 1}) {
		t.Fatalf("confirmed: batch=%v per-node=%v, want [0 1]", members(b.Confirmed), members(p.Confirmed))
	}

	// The batch record itself round-trips its exact node lists.
	recs := replayFile(t, pathB)
	if len(recs) != 2 || recs[1].Kind != KindDispatchedBatch || !slices.Equal(recs[1].Nodes, nodes) || !slices.Equal(recs[1].Confirmed, []int{0, 1}) {
		t.Fatalf("batch replay: %+v, want nodes %v", recs, nodes)
	}
}

// members lists a dense set's indices.
func members(set []bool) []int {
	var out []int
	for i, in := range set {
		if in {
			out = append(out, i)
		}
	}
	return out
}

func openTemp2(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs2.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, path
}

// A batch record is atomic under a torn tail: any truncation inside the
// frame drops the whole group — never a partial node list — and the
// preceding records replay intact.
func TestJournalTornTailMidBatch(t *testing.T) {
	j, path := openTemp(t)
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDispatched, Job: 1, Node: 0}); err != nil {
		t.Fatal(err)
	}
	batchStart := j.Size()
	if err := j.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{1, 2, 3, 7, 19}, Confirmed: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(batchStart); cut < len(whole); cut++ {
		recs, valid, err := Replay(whole[:cut])
		if err != nil {
			t.Fatalf("cut=%d: Replay error: %v", cut, err)
		}
		if valid != int(batchStart) || len(recs) != 2 {
			t.Fatalf("cut=%d: valid=%d recs=%d, want prefix %d with 2 records", cut, valid, len(recs), batchStart)
		}
		for _, r := range recs {
			if r.Kind == KindDispatchedBatch {
				t.Fatalf("cut=%d: partial batch surfaced: %+v", cut, r)
			}
		}
	}
}

// Flipping any single byte inside a record frame must not produce a
// bogus record: replay stops at or before the corrupted frame.
func TestJournalCRCCorruption(t *testing.T) {
	j, path := openTemp(t)
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindTerminal, Job: 1, Done: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(magic); i < len(whole); i++ {
		data := append([]byte(nil), whole...)
		data[i] ^= 0xff
		recs, _, err := Replay(data)
		if err != nil {
			t.Fatalf("flip@%d: Replay error: %v", i, err)
		}
		if len(recs) > 2 {
			t.Fatalf("flip@%d: %d records from corrupt input", i, len(recs))
		}
		// A flip in the first frame must not let record 0 decode as
		// valid with altered content AND a matching CRC: CRC32 catches
		// all single-byte flips within a frame.
		if len(recs) >= 1 && recs[0].Kind != KindAdmit {
			t.Fatalf("flip@%d: first record kind %v", i, recs[0].Kind)
		}
	}
}

// A frame whose length prefix is a non-minimal varint is a second byte
// form of the same frame: Replay's valid prefix ends before it, as at a
// torn length, and Open folds that prefix and cuts the rest off.
func TestJournalNonMinimalFrameLength(t *testing.T) {
	data := appendRecord(append([]byte(nil), magic[:]...), sampleAdmit(1))
	valid := len(data)
	frame := appendRecord(nil, Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0, 1}})
	if frame[0] >= 0x80 {
		t.Fatalf("frame length prefix %#x is not one byte", frame[0])
	}
	data = append(data, frame[0]|0x80, 0)
	data = append(data, frame[1:]...)
	data = appendRecord(data, Record{Kind: KindTerminal, Job: 1, Done: true})

	recs, n, err := Replay(data)
	if err != nil || n != valid || len(recs) != 1 || recs[0].Kind != KindAdmit {
		t.Fatalf("Replay = %d records, valid %d, err %v; want the admit alone, valid %d", len(recs), n, err, valid)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := reopenState(t, path)
	if st.Frames != 1 || len(st.Live) != 1 || len(st.Live[0].Dispatched) != 0 || len(st.Finished) != 0 {
		t.Fatalf("Open folded %+v, want the admitted job live with nothing dispatched", st)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(valid) {
		t.Fatalf("Open left %v bytes (err %v), want the valid prefix's %d", fi.Size(), err, valid)
	}
}

func TestJournalBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, []byte("BOGUS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrJournal) {
		t.Fatalf("Open bad header: err=%v, want ErrJournal", err)
	}
}

func TestJournalCompact(t *testing.T) {
	j, path := openTemp(t)
	for i := 0; i < 100; i++ {
		if err := j.Append(Record{Kind: KindDispatched, Job: 1, Node: i}); err != nil {
			t.Fatal(err)
		}
	}
	big := j.Size()
	// Compact replaces what Open folded: reopen, so that is the 100.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	live := []Record{sampleAdmit(7), {Kind: KindDispatchedBatch, Job: 7, Nodes: []int{0, 1}, Confirmed: []int{0}}}
	if err := j.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if j.Size() >= big {
		t.Fatalf("compact did not shrink: %d -> %d", big, j.Size())
	}
	// Appends continue on the compacted file.
	if err := j.Append(Record{Kind: KindTerminal, Job: 7, Done: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayFile(t, path)
	if len(got) != 3 {
		t.Fatalf("after compact: %d records, want 3", len(got))
	}
	if got[0].Kind != KindAdmit || got[0].Job != 7 || got[2].Kind != KindTerminal {
		t.Fatalf("compacted contents wrong: %+v", got)
	}
}

// Crash fails every subsequent append with ErrCrashed: the file
// retains exactly the pre-crash bytes, like a kill -9, and callers
// with a write-ahead contract can see their record did not land.
func TestJournalCrash(t *testing.T) {
	j, path := openTemp(t)
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	pre := j.Size()
	j.Crash()
	if err := j.Append(Record{Kind: KindTerminal, Job: 1, Done: true}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append: err = %v, want ErrCrashed", err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if j.Size() != pre {
		t.Fatalf("post-crash append changed size: %d -> %d", pre, j.Size())
	}
	j.Close()
	// Process death keeps what reached the OS, fsynced or not.
	if n := reopenState(t, path).Frames; n != 2 {
		t.Fatalf("post-crash replay: %d records, want 2", n)
	}
}

// PowerLoss keeps only what an fsync covered: a delta appended after
// the last one is gone, as it may be after the machine dies.
func TestJournalPowerLoss(t *testing.T) {
	for _, synced := range []bool{false, true} {
		j, path := openTemp(t)
		if err := j.Append(sampleAdmit(1)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0, 1}}); err != nil {
			t.Fatal(err)
		}
		if synced {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		j.PowerLoss()
		if err := j.Append(Record{Kind: KindTerminal, Job: 1, Done: true}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("append after power loss: err = %v, want ErrCrashed", err)
		}
		j.Close()
		st := reopenState(t, path)
		want := []int{0, 1}
		if !synced {
			want = nil
		}
		if len(st.Live) != 1 || !slices.Equal(members(st.Live[0].Dispatched), want) {
			t.Fatalf("synced=%v: after power loss %+v, want job 1 live with %v dispatched", synced, st, want)
		}
	}
}

func TestJournalOnAppend(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	var kinds []Kind
	j.SetOnAppend(func(r Record) { kinds = append(kinds, r.Kind) })
	j.Append(sampleAdmit(1))                                 //nolint:errcheck
	j.Append(Record{Kind: KindDispatched, Job: 1})           //nolint:errcheck
	j.Append(Record{Kind: KindTerminal, Job: 1, Done: true}) //nolint:errcheck
	j.AppendAll([]Record{sampleAdmit(2), sampleAdmit(3)})    //nolint:errcheck
	want := []Kind{KindAdmit, KindDispatched, KindTerminal, KindAdmit, KindAdmit}
	if !slices.Equal(kinds, want) {
		t.Fatalf("hook saw %v, want %v", kinds, want)
	}
}

// The delta append path must not allocate: it runs once per release
// wave on the engine's hot path, confirms riding along.
func TestJournalAppendAllocs(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Kind: KindDispatched, Job: 1, Node: 3},
		{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{4, 5, 9}, Confirmed: []int{0, 1, 2, 3}},
	} {
		// Warm the scratch buffer, then pin.
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v append allocates %.1f/op, want 0", rec.Kind, allocs)
		}
	}
}

// Concurrent durable appends share fsyncs: with an fsync held in flight
// (the test holds syncMu, as a running fsync does) until every appender
// has written, the n appends then cost one fsync between them.
func TestJournalGroupCommit(t *testing.T) {
	j, path := openTemp(t)
	const n = 8
	recLen := int64(len(appendRecord(nil, Record{Kind: KindTerminal, Job: 1, Done: true})))
	all := j.Size() + n*recLen
	j.syncMu.Lock()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- j.Append(Record{Kind: KindTerminal, Job: i, Done: true})
		}()
	}
	for j.Size() < all {
		time.Sleep(time.Millisecond)
	}
	j.syncMu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	syncs := j.syncs
	j.mu.Unlock()
	if syncs != 1 {
		t.Fatalf("%d durable appends took %d fsyncs, want 1", n, syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayFile(t, path)); got != n {
		t.Fatalf("%d records after reopen, want %d", got, n)
	}
}

// A commit that queued behind a Compact waited for bytes the compaction
// carried into its synced snapshot: it returns at once, successfully,
// instead of syncing the new file until it grows past their offset, and
// the record is in the file a restart reads.
func TestJournalCommitAcrossCompact(t *testing.T) {
	j, path := openTemp(t)
	for i := 0; i < 4; i++ {
		if err := j.Append(sampleAdmit(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// A terminal appended with its fsync still to come, as a committer
	// blocked on syncMu while Compact runs holds it.
	j.mu.Lock()
	if _, err := j.write([]Record{{Kind: KindTerminal, Job: 1, Done: true}}); err != nil {
		t.Fatal(err)
	}
	gen, end := j.gen, j.size
	j.mu.Unlock()
	if err := j.Compact([]Record{sampleAdmit(2)}); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= end {
		t.Fatalf("compacted file (%d bytes) not shorter than the commit's offset %d", j.Size(), end)
	}
	done := make(chan error, 1)
	go func() { done <- j.commit(gen, end) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit across a compaction: err = %v, want its record kept", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit across a compaction did not return")
	}
	// The journal itself is fine: appends go on in the compacted file.
	if err := j.Append(Record{Kind: KindTerminal, Job: 2, Done: true}); err != nil {
		t.Fatal(err)
	}
	got := replayFile(t, path)
	if len(got) != 4 || got[1].Kind != KindTerminal || got[1].Job != 4 || got[2].Kind != KindTerminal || got[2].Job != 1 {
		t.Fatalf("records after the compaction and one append: %+v, want admit 2, the id watermark 4, terminal 1, terminal 2", got)
	}
}

// TestJournalCompactKeepsAppendsAndWatermark: Compact replaces only
// what Open folded — a job admitted since stays in the file — and never
// lowers LastJob, also when the file it replaces names no live job: the
// restart after the next one must not number jobs from 1 again.
func TestJournalCompactKeepsAppendsAndWatermark(t *testing.T) {
	j, path := openTemp(t)
	for _, rec := range []Record{sampleAdmit(4), {Kind: KindTerminal, Job: 4, Done: true}} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for restart := 0; restart < 3; restart++ {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if j, err = Open(path); err != nil {
			t.Fatal(err)
		}
		if got, want := j.LastJob(), 4+min(restart, 1); got != want {
			t.Fatalf("restart %d: LastJob = %d, want %d", restart, got, want)
		}
		if restart == 0 {
			// Admitted between Open and Compact: kept behind the snapshot.
			if err := j.Append(sampleAdmit(5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Compact(nil); err != nil {
			t.Fatal(err)
		}
		if restart == 0 {
			got := replayFile(t, path)
			if len(got) != 2 || got[0].Kind != KindTerminal || got[0].Job != 4 || got[1].Kind != KindAdmit || got[1].Job != 5 {
				t.Fatalf("first compaction left %+v, want the watermark 4 and job 5's admit", got)
			}
		}
	}
	j.Close()
}

// A Compact whose directory fsync fails leaves the journal on the
// compacted file, and every later append fails: until the rename is on
// disk, none may count as durable, and none may go to the unlinked
// old file either.
func TestJournalCompactDirSyncFails(t *testing.T) {
	defer func(f func(*os.File) error) { dirSync = f }(dirSync)
	einval := errors.New("invalid argument")
	dirSync = func(*os.File) error { return einval }
	j, path := openTemp(t)
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	// Compact replaces what Open folded: reopen, so that is the admit.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Compact([]Record{sampleAdmit(1)}); !errors.Is(err, einval) {
		t.Fatalf("Compact: err = %v, want the directory sync's", err)
	}
	for _, rec := range []Record{
		{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0}},
		{Kind: KindTerminal, Job: 1, Done: true},
	} {
		if err := j.Append(rec); !errors.Is(err, einval) {
			t.Fatalf("%v append after the failed compaction: err = %v, want the directory sync's", rec.Kind, err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != j.Size() || j.Size() != int64(len(magic)+len(appendRecord(nil, sampleAdmit(1)))) {
		t.Fatalf("the path holds %d bytes, the journal counts %d: want the compacted file alone", fi.Size(), j.Size())
	}
}

// writeHistory writes a journal of finished jobs — admit, a wave
// carrying confirms, terminal each — plus one job still live, and
// returns the file's size.
func writeHistory(t testing.TB, path string, finished int) int {
	buf := append([]byte(nil), magic[:]...)
	for id := 1; id <= finished; id++ {
		buf = appendRecord(buf, sampleAdmit(id))
		buf = appendRecord(buf, Record{Kind: KindDispatchedBatch, Job: id, Nodes: []int{0, 1, 2}})
		buf = appendRecord(buf, Record{Kind: KindTerminal, Job: id, Done: true, Confirmed: []int{0, 1, 2}})
	}
	buf = appendRecord(buf, sampleAdmit(finished+1))
	buf = appendRecord(buf, Record{Kind: KindDispatchedBatch, Job: finished + 1, Nodes: []int{0, 1}})
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return len(buf)
}

// Open's allocations beyond the buffer it reads the file into are
// bounded by the ring of finished jobs it keeps: ten times the history
// costs no more than the ring's worth of decoded jobs.
func TestJournalOpenAllocsBoundedByRing(t *testing.T) {
	overhead := func(finished int) (int, uint64) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		size := writeHistory(t, path, finished)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		j, err := Open(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st := j.TakeState()
		j.Close()
		if st.Frames != 3*finished+2 || len(st.Live) != 1 || len(st.Finished)+st.Forgotten != finished {
			t.Fatalf("%d finished jobs folded to %d frames, %d live, %d+%d finished",
				finished, st.Frames, len(st.Live), len(st.Finished), st.Forgotten)
		}
		return size, after.TotalAlloc - before.TotalAlloc - uint64(size)
	}
	size1k, small := overhead(1000)
	size10k, large := overhead(10000)
	// What one kept job costs, generously: its ring entry, its admit
	// and terminal decoded into values of their own (≈ 0.5 KB here).
	const perJob = 1 << 10
	bound := uint64(RetainFinished*perJob + 64<<10)
	t.Logf("beyond the read buffer: %d B for 1k finished jobs (%d B file), %d B for 10k (%d B file), bound %d",
		small, size1k, large, size10k, bound)
	if large > bound {
		t.Fatalf("Open of 10k finished jobs allocates %d B beyond its read buffer, more than the ring's bound %d", large, bound)
	}
	if large > small+small/4 {
		t.Fatalf("Open allocates %d B beyond the read buffer for 10k finished jobs, %d for 1k: it grows with history", large, small)
	}
}

// canonJob is one job of a fold, with sets as index lists: what two
// folds are compared by.
type canonJob struct {
	ID                    int
	Admit                 *Admit
	Dispatched, Confirmed []int
	Done                  bool
	Error                 string
}

func canonState(st State) (out struct {
	Frames, LastJob, Forgotten int
	Live, Finished             []canonJob
}) {
	out.Frames, out.LastJob, out.Forgotten = st.Frames, st.LastJob, st.Forgotten
	for _, lj := range st.Live {
		out.Live = append(out.Live, canonJob{ID: lj.ID, Admit: lj.Admit, Dispatched: members(lj.Dispatched), Confirmed: members(lj.Confirmed)})
	}
	for _, f := range st.Finished {
		out.Finished = append(out.Finished, canonJob{ID: f.ID, Admit: f.Admit, Done: f.Done, Error: f.Error})
	}
	return out
}

// refFold is Open's fold restated over Replay's records: a job exists
// from its admit record on, records of other jobs are dropped, a
// terminal record moves a job to the finished ones, and the newest
// RetainFinished of those are kept.
func refFold(recs []Record) State {
	st := State{Frames: len(recs)}
	live := map[int]*LiveJob{}
	mark := func(set []bool, i int) []bool {
		if i < 0 || i >= maxNode {
			return set
		}
		for len(set) <= i {
			set = append(set, false)
		}
		set[i] = true
		return set
	}
	for _, r := range recs {
		st.LastJob = max(st.LastJob, r.Job)
		lj := live[r.Job]
		switch {
		case r.Kind == KindAdmit:
			if lj == nil {
				lj = &LiveJob{ID: r.Job}
				live[r.Job] = lj
			}
			lj.Admit = r.Admit
		case lj == nil:
		case r.Kind == KindDispatched:
			lj.Dispatched = mark(lj.Dispatched, r.Node)
		case r.Kind == KindConfirmed:
			lj.Confirmed = mark(lj.Confirmed, r.Node)
		case r.Kind == KindDispatchedBatch:
			for _, i := range r.Nodes {
				lj.Dispatched = mark(lj.Dispatched, i)
			}
			for _, i := range r.Confirmed {
				lj.Confirmed = mark(lj.Confirmed, i)
			}
		case r.Kind == KindTerminal:
			st.Finished = append(st.Finished, FinishedJob{ID: r.Job, Admit: lj.Admit, Done: r.Done, Error: r.Error})
			delete(live, r.Job)
		}
	}
	if n := len(st.Finished) - RetainFinished; n > 0 {
		st.Forgotten, st.Finished = n, st.Finished[n:]
	}
	for _, lj := range live {
		st.Live = append(st.Live, *lj)
	}
	slices.SortFunc(st.Live, func(a, b LiveJob) int { return a.ID - b.ID })
	return st
}

// FuzzJournalReplay: replay never panics on adversarial bytes; every
// decoded record re-encodes to frame bytes that decode identically
// (decode→encode identity); the valid prefix is stable under
// re-replay; and Open's fold of the bytes is the reference fold of
// Replay's records, over the same prefix.
func FuzzJournalReplay(f *testing.F) {
	seed := append([]byte(nil), magic[:]...)
	seed = appendRecord(seed, sampleAdmit(1))
	seed = appendRecord(seed, Record{Kind: KindDispatched, Job: 1, Node: 0})
	seed = appendRecord(seed, Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{1, 2, 4, 9}, Confirmed: []int{0, 2}})
	seed = appendRecord(seed, Record{Kind: KindConfirmed, Job: 1, Node: 0})
	seed = appendRecord(seed, Record{Kind: KindTerminal, Job: 1, Error: "rollback", Confirmed: []int{4}})
	seed = appendRecord(seed, sampleAdmit(2))
	seed = appendRecord(seed, Record{Kind: KindDispatchedBatch, Job: 2, Nodes: []int{3}})
	f.Add(seed)
	f.Add(magic[:])
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), magic[:]...), 0x03, 0x01, 0x00, 0xff))
	frame := appendRecord(nil, Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{3}})
	f.Add(append(append(append([]byte(nil), magic[:]...), frame[0]|0x80, 0), frame[1:]...)) // a non-minimal length

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := Replay(data)
		st, foldValid, foldErr := fold(data)
		if (err == nil) != (foldErr == nil) {
			t.Fatalf("Replay err=%v, fold err=%v", err, foldErr)
		}
		if err != nil {
			return // bad header: fine, as long as no panic
		}
		if valid > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		// Prefix stability.
		recs2, valid2, err2 := Replay(data[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("unstable prefix: err=%v valid=%d/%d recs=%d/%d",
				err2, valid2, valid, len(recs2), len(recs))
		}
		// Decode→encode identity: re-encoding the decoded records must
		// reproduce the valid prefix byte-for-byte (canonical varints
		// guarantee a unique encoding per record).
		buf := append([]byte(nil), magic[:]...)
		for _, r := range recs {
			buf = appendRecord(buf, r)
		}
		if !bytes.Equal(buf, data[:valid]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", buf, data[:valid])
		}
		// The fold reads the same prefix and folds it as the reference.
		if foldValid != valid {
			t.Fatalf("fold read %d bytes, Replay %d", foldValid, valid)
		}
		if got, want := canonState(st), canonState(refFold(recs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold:\n %+v\nreference fold of Replay's records:\n %+v", got, want)
		}
	})
}

// BenchmarkJournalCompaction measures the snapshot+truncate path under
// large job state — the journal a 100k-switch soak tier accumulates:
// many live jobs, each with its admit spec and a wide dispatched
// frontier whose first nodes are confirmed. Reported metrics: ns/op
// for one full Compact (encode + write + fsync + rename + dir fsync)
// plus the snapshot size it writes.
func BenchmarkJournalCompaction(b *testing.B) {
	const (
		jobs      = 96
		batchW    = 512 // dispatched frontier per job
		confirmed = 256 // confirmed nodes per job
	)
	live := make([]Record, 0, 2*jobs)
	batch := make([]int, batchW)
	for i := range batch {
		batch[i] = i
	}
	for job := 1; job <= jobs; job++ {
		live = append(live, sampleAdmit(job))
		live = append(live, Record{Kind: KindDispatchedBatch, Job: job, Nodes: batch, Confirmed: batch[:confirmed]})
	}
	path := filepath.Join(b.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := j.Compact(live); err != nil {
		b.Fatal(err)
	}
	snapshot := j.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Compact(live); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(snapshot), "snapshot_bytes")
	b.ReportMetric(float64(len(live)), "records")
}

func BenchmarkJournalAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(sampleAdmit(1)); err != nil {
		b.Fatal(err)
	}
	rec := Record{Kind: KindDispatched, Job: 1, Node: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalOpen opens a journal of 10k finished jobs: the fold a
// restart reads, which keeps the newest RetainFinished of them.
func BenchmarkJournalOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.journal")
	writeHistory(b, path, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		j.Close()
	}
}
