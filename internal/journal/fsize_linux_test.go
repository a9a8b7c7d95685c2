//go:build linux

package journal

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// An append the file-size limit cuts short leaves no partial frame
// behind: the records appended after it survive a reopen. The limit
// (RLIMIT_FSIZE) is process-wide, so the appends run in a child
// process of this test binary.
func TestJournalFailedAppendCutOff(t *testing.T) {
	if path := os.Getenv("JOURNAL_FSIZE_CHILD"); path != "" {
		fsizeChild(t, path)
		return
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestJournalFailedAppendCutOff$", "-test.count=1")
	cmd.Env = append(os.Environ(), "JOURNAL_FSIZE_CHILD="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	recs := replayFile(t, path)
	if len(recs) != 3 || recs[0].Kind != KindAdmit || recs[1].Kind != KindDispatchedBatch || recs[2].Kind != KindTerminal {
		t.Fatalf("after a cut-short append: %+v, want the admit and the two later records", recs)
	}
	if st := reopenState(t, path); len(st.Finished) != 1 || !st.Finished[0].Done {
		t.Fatalf("fold after a cut-short append: %+v, want job 1 done", st)
	}
}

// fsizeChild appends an admit, lowers the file-size limit into the
// middle of the next frame, appends it (which must fail), restores the
// limit and appends two more records.
func fsizeChild(t *testing.T, path string) {
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleAdmit(1)); err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(j.Size()) + 8
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	err = j.Append(Record{Kind: KindTerminal, Job: 1, Error: strings.Repeat("x", 64)})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("an append past the file-size limit succeeded")
	}
	if err := j.Append(Record{Kind: KindDispatchedBatch, Job: 1, Nodes: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindTerminal, Job: 1, Done: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
