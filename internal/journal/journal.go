// Package journal is the controller's write-ahead job journal: an
// append-only binary log of job state transitions that survives a
// controller crash, so a restarted engine can tell exactly which jobs
// were queued, which were mid-flight (and how far their dispatched and
// confirmed frontiers had advanced), and which had already retired.
//
// The engine writes three records per job, whatever its size:
//
//   - admit: the job's full recovery spec, written before anything is
//     dispatched — id, algorithm, interval, mode, and (for recoverable
//     single-flow jobs) the update instance, the flow match, the
//     property set, and the execution DAG in the canonical plan codec,
//     plus which DAG nodes are cleanup nodes.
//   - dispatched-batch: one per release wave, appended before any of
//     the wave's FlowMods leave (write-ahead), naming the wave's nodes.
//     It also carries, as an optional trailing list, the installs the
//     job confirmed since its previous record: a confirm is only a lower
//     bound on what took effect (a restart asks the switches), so it
//     rides the next record instead of costing one of its own. At the
//     instant a dispatched record lands, the journal holds exactly the
//     confirms that arrived before it.
//   - terminal: the job retired (done, or failed with an error), with
//     the confirms no earlier record carried.
//
// The per-node dispatched and confirmed records of older journals still
// decode, and fold like a batch of one.
//
// Frames and payloads are read and written by internal/wirefmt, as the
// plan codec's and planwire's are (canonical uvarints, strict
// decoding): each record is `uvarint(len(payload)) || payload ||
// crc32(payload)`, after a fixed "TSUJ"+version header. Replay accepts
// the longest valid prefix — a torn tail (truncated frame, non-minimal
// length, bad CRC, malformed payload) ends replay without error,
// exactly the state a kill -9 mid-append leaves behind — and Open
// truncates the tail so new appends continue from the last intact
// record. An append that
// fails partway is cut off the same way before anything follows it.
//
// Durability: admit and terminal records are on disk before Append
// returns; deltas are fsynced once syncEvery plan nodes have been
// appended since the last fsync. Every append's fsync runs in one
// function, commit, one at a time and without the append lock: a
// committer queued behind an fsync often finds its bytes covered by
// it, and otherwise syncs for everyone queued behind it — group commit,
// without a goroutine of its own. The delta append path allocates
// nothing in steady state.
//
// Open folds as it reads: it checks every frame and folds the records
// straight into per-job State — the live jobs with their dispatched and
// confirmed sets, and the newest RetainFinished finished jobs — so what
// a restart allocates beyond the file's bytes grows with live jobs, not
// with history.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tsu/internal/wirefmt"
)

// ErrJournal marks malformed journal data; match with errors.Is.
var ErrJournal = errors.New("malformed journal")

// magic and version open every journal file.
var magic = [5]byte{'T', 'S', 'U', 'J', 1}

// Record kinds.
type Kind uint8

const (
	KindAdmit Kind = 1
	// KindDispatched and KindConfirmed are the per-node deltas of older
	// journals; they decode and fold, and the engine no longer writes
	// them.
	KindDispatched Kind = 2
	KindConfirmed  Kind = 3
	KindTerminal   Kind = 4
	// KindDispatchedBatch is a release wave's write-ahead record: its
	// nodes, semantically identical to that many KindDispatched records
	// in ascending node order, plus the confirms since the job's
	// previous record.
	KindDispatchedBatch Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindDispatched:
		return "dispatched"
	case KindConfirmed:
		return "confirmed"
	case KindTerminal:
		return "terminal"
	case KindDispatchedBatch:
		return "dispatched-batch"
	}
	return "unknown"
}

// Admit is the recovery spec journaled at admission: everything needed
// to rebuild a job's execution DAG and its rollback spec. The engine
// writes every record Recoverable; a record an older engine wrote
// without the spec decodes with empty paths, and its job fails on
// restart when caught non-terminal.
type Admit struct {
	Algorithm string
	Interval  time.Duration
	Mode      uint8 // controller-driven (0) or decentralized (1)

	// Recoverable gates the fields below.
	Recoverable bool

	// Old and New are the update instance's paths (datapath ids in
	// forwarding order); Waypoint is 0 when the policy has none.
	Old, New []uint64
	Waypoint uint64

	// NWDst identifies the flow (IPv4 in host byte order); the engine
	// rebuilds the exact-match from it.
	NWDst uint32

	// Props is the property set the rollback must uphold
	// (core.Property bits).
	Props uint64

	// Cleanup lists the DAG node indices that are garbage-collection
	// nodes (ascending).
	Cleanup []int

	// Plan is the execution DAG in the canonical plan codec
	// (core.EncodePlan), covering update and cleanup nodes alike.
	Plan []byte
}

// Record is one journal entry.
type Record struct {
	Kind Kind
	Job  int

	// Node is the plan-node index of dispatched/confirmed deltas.
	Node int

	// Nodes are the plan-node indices of a dispatched batch, strictly
	// ascending (the codec delta-encodes gaps, like Admit.Cleanup).
	Nodes []int

	// Confirmed are the plan-node indices the job confirmed since its
	// previous record, strictly ascending. Dispatched-batch and terminal
	// records carry them, as a trailing list written only when
	// non-empty.
	Confirmed []int

	// Done and Error describe terminal records.
	Done  bool
	Error string

	// Admit is set on admit records.
	Admit *Admit
}

// syncEvery batches fsyncs on the delta path: at most this many plan
// nodes, dispatched or confirmed, are appended between two syncs. Admit
// and terminal records always sync.
const syncEvery = 32

// Journal is an open write-ahead journal. Safe for concurrent use.
type Journal struct {
	// syncMu is held across every fsync of the file and by Compact and
	// Close, and is taken before mu. mu guards the fields below and is
	// never held across an append's fsync, so appends go on during one.
	syncMu sync.Mutex
	mu     sync.Mutex

	f        *os.File
	path     string
	gen      int    // bumped by each Compact: which file size and durable measure
	folded   int64  // the file's length Open folded, or Compact's snapshot
	buf      []byte // reused append scratch: frame head + payload + crc
	size     int64  // the file's length: every byte appended
	durable  int64  // the file's length when the last completed fsync began
	unsynced int    // delta nodes appended since the last fsync began
	syncs    int    // fsyncs commit has run
	err      error  // a failure no later append can outlive (see write, commit, Compact)
	crashed  bool
	state    State // what Open folded, until TakeState
	lastJob  int   // State.LastJob of Open's fold
	onAppend func(Record)
}

// dirSync makes a rename in a directory durable; a variable, so tests
// can make it fail as some filesystems do.
var dirSync = (*os.File).Sync

// Open opens (or creates) the journal at path, folds the longest valid
// record prefix into State (see TakeState), and truncates any torn
// tail so appends continue from the last intact record.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	fail := func(err error) (*Journal, error) {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	data, err := readFile(f)
	if err != nil {
		return fail(fmt.Errorf("journal: read: %w", err))
	}
	j := &Journal{f: f, path: path}
	if len(data) == 0 {
		if _, err := f.Write(magic[:]); err != nil {
			return fail(fmt.Errorf("journal: writing header: %w", err))
		}
		j.size, j.durable, j.folded = int64(len(magic)), int64(len(magic)), int64(len(magic))
		return j, nil
	}
	st, valid, err := fold(data)
	if err != nil {
		return fail(err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			return fail(fmt.Errorf("journal: truncating torn tail: %w", err))
		}
	}
	j.size, j.durable, j.folded = int64(valid), int64(valid), int64(valid)
	j.state, j.lastJob = st, st.LastJob
	return j, nil
}

// readFile reads f whole into one buffer of the file's size.
func readFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = nil // the file shrank under us: what was read is the file
	}
	return data[:n], err
}

// frames walks the records after data's header, handing each intact
// frame's payload to fn, and returns the byte length of the valid
// prefix: the walk stops at a torn or non-minimal length, a torn
// payload or CRC, a corrupt frame, and at a payload fn refuses. A short
// or corrupt header is an error.
func frames(data []byte, fn func(payload []byte) bool) (valid int, err error) {
	if len(data) < len(magic) || [5]byte(data[:len(magic)]) != magic {
		return 0, fmt.Errorf("journal: bad header: %w", ErrJournal)
	}
	d := wirefmt.NewDecoder(data, ErrJournal)
	d.Take(len(magic))
	for valid = d.Off(); valid < len(data); valid = d.Off() {
		payload := d.Bytes(len(data))
		crc := d.Take(4)
		if d.Err() != nil || crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crc) || !fn(payload) {
			break // a torn tail, well-framed garbage included: not a panic
		}
	}
	return valid, nil
}

// Replay decodes records from raw journal bytes, returning the decoded
// records and the byte length of the valid prefix. A short or corrupt
// header is an error; a torn tail after a valid header is not — replay
// simply stops there. Replay never panics on adversarial input. It is
// the record-by-record view of what Open folds.
func Replay(data []byte) (recs []Record, valid int, err error) {
	valid, err = frames(data, func(payload []byte) bool {
		rec, err := decodeRecord(payload)
		if err != nil {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	return recs, valid, err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Size returns the journal's current byte size.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// LastJob returns the highest job id a record of the file Open read
// names: an engine built over the journal numbers its jobs after it.
func (j *Journal) LastJob() int { return j.lastJob }

// TakeState returns what Open folded the file's records into, once:
// the journal lets go of it, and a later call returns the zero State.
func (j *Journal) TakeState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.state
	j.state = State{}
	return st
}

// SetOnAppend installs a hook invoked after each record is appended,
// outside the journal lock — the hook may call Crash to simulate the
// process dying right after the record hit the file (crash-at-boundary
// suites count dispatched records here). Call before the journal is in
// use.
func (j *Journal) SetOnAppend(fn func(Record)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onAppend = fn
}

// ErrCrashed is returned by Append after Crash. Callers with a
// write-ahead contract must treat it as "the record is NOT durable":
// in particular the engine refuses to dispatch a node whose
// dispatched delta failed to journal.
var ErrCrashed = errors.New("journal: crashed")

// Crash simulates the process dying at this instant: every future
// Append fails with ErrCrashed, and Sync and Compact become silent
// no-ops, so whatever bytes reached the file so far are exactly what
// a restarted controller will replay. Test instrumentation — a real
// kill needs no cooperation.
func (j *Journal) Crash() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashed = true
}

// PowerLoss simulates the machine losing power at this instant: Crash,
// and the file also loses every byte appended after the last completed
// fsync began — what the OS may still have held in its page cache. Test
// instrumentation, like Crash.
func (j *Journal) PowerLoss() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashed = true
	j.f.Truncate(j.durable) //nolint:errcheck // the simulated machine is gone either way
	j.size = j.durable
}

// Append journals one record. Admit and terminal records are on disk
// before it returns; deltas are write-through to the OS but
// fsync-batched. The delta path reuses the journal's scratch buffer
// and allocates nothing in steady state.
func (j *Journal) Append(rec Record) error {
	return j.AppendAll([]Record{rec})
}

// AppendAll journals recs in one write, as Append would one by one:
// the whole group is committed by one fsync when any of it must be,
// and the append hook sees each record in order.
func (j *Journal) AppendAll(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	commit, err := j.write(recs)
	gen, end, fn := j.gen, j.size, j.onAppend
	j.mu.Unlock()
	if commit && err == nil {
		err = j.commit(gen, end)
	}
	if err != nil {
		return err
	}
	if fn != nil {
		for i := range recs {
			fn(recs[i])
		}
	}
	return nil
}

// write appends recs to the file and reports whether they must be
// committed before the append returns: an admit or terminal is among
// them, or syncEvery delta nodes were appended since the last fsync.
// Caller holds j.mu.
func (j *Journal) write(recs []Record) (commit bool, err error) {
	if err := j.usable(); err != nil {
		return false, err
	}
	j.buf = j.buf[:0]
	durable, nodes := false, 0
	for i := range recs {
		j.buf = appendRecord(j.buf, recs[i])
		switch rec := &recs[i]; rec.Kind {
		case KindAdmit, KindTerminal:
			durable = true
		case KindDispatchedBatch:
			nodes += len(rec.Nodes) + len(rec.Confirmed)
		default:
			nodes++
		}
	}
	if _, err := j.f.Write(j.buf); err != nil {
		// A short write leaves part of a frame behind, and replay stops
		// at a torn frame: whatever was appended after it would be lost.
		// Cut the file back to its last whole record — or, failing that,
		// append nothing more.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.err = fmt.Errorf("journal: cutting off a failed append: %w", terr)
		}
		return false, fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(j.buf))
	j.unsynced += nodes
	return durable || j.unsynced >= syncEvery, nil
}

// usable returns why nothing more can be appended or committed, if
// anything. Caller holds j.mu.
func (j *Journal) usable() error {
	if j.crashed {
		return ErrCrashed
	}
	return j.err
}

// commit returns once the first end bytes of generation gen of the file
// are on disk. It is the only place an append's fsync runs, and fsyncs
// run one at a time, under syncMu: each covers every byte written before
// it began, so a committer that queued behind one usually finds its
// bytes covered and returns, and otherwise syncs all that is written so
// far, for the committers queued behind it. Caller holds neither lock.
// A failed fsync fails every later append: after one, the OS may have
// dropped the pages it could not write, and no retry can tell.
func (j *Journal) commit(gen int, end int64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	// A Compact since gen carried the bytes into the snapshot it synced.
	if err := j.usable(); err != nil || j.gen != gen || j.durable >= end {
		j.mu.Unlock()
		return err
	}
	f, upTo := j.f, j.size
	j.unsynced = 0
	j.syncs++
	j.mu.Unlock()
	err := f.Sync()
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err != nil:
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	case j.crashed:
		return ErrCrashed // the machine died mid-fsync: nothing it covered counts
	}
	j.durable = upTo
	return nil
}

// Sync flushes batched delta appends to disk. After Crash it does
// nothing.
func (j *Journal) Sync() error {
	j.mu.Lock()
	gen, end := j.gen, j.size
	j.mu.Unlock()
	if err := j.commit(gen, end); !errors.Is(err, ErrCrashed) {
		return err
	}
	return nil
}

// Compact atomically replaces the records Open folded with the given
// ones — the snapshot+truncate step a recovered controller runs once
// the replayed state has been folded, so the file stays proportional
// to live state instead of total history — and keeps every record
// appended since Open behind them; a later Compact replaces this one's
// records the same way. It never lowers LastJob: when no record of
// recs names the highest job id Open read, a terminal record for that
// id goes with them, which a fold counts and otherwise drops. The
// replacement survives a power loss: records are written to a temp
// file, synced, renamed over the journal, and the rename is made
// durable by syncing the directory. An append's commit still waiting
// finds its record in the synced snapshot.
func (j *Journal) Compact(recs []Record) error {
	j.syncMu.Lock() // no fsync in flight on the file about to be replaced
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.crashed {
		return nil
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-compact-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
	buf := append([]byte(nil), magic[:]...)
	watermark := j.lastJob
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
		if rec.Job >= watermark {
			watermark = 0
		}
	}
	if watermark > 0 {
		buf = appendRecord(buf, Record{Kind: KindTerminal, Job: watermark, Done: true})
	}
	head := len(buf)
	buf = append(buf, make([]byte, j.size-j.folded)...)
	if _, err := j.f.ReadAt(buf[head:], j.folded); err != nil {
		tmp.Close() //nolint:errcheck // already failing
		return fmt.Errorf("journal: compact read: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close() //nolint:errcheck // already failing
		return fmt.Errorf("journal: compact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck // already failing
		return fmt.Errorf("journal: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	// From here on the path names the compacted file. An append to the
	// old one would land in a file no restart reads, so every failure
	// below fails all later appends.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		j.err = fmt.Errorf("journal: compact reopen: %w", err)
		return j.err
	}
	j.f.Close() //nolint:errcheck // superseded by the compacted file
	j.f, j.gen = f, j.gen+1
	j.size, j.durable, j.folded = int64(len(buf)), int64(len(buf)), int64(head)
	j.unsynced = 0
	// Until the directory is on disk, a power loss can bring the old
	// file back — without the appends made after this compaction.
	d, err := os.Open(dir)
	if err == nil {
		err = dirSync(d)
		d.Close() //nolint:errcheck // read-only handle
	}
	if err != nil {
		j.err = fmt.Errorf("journal: compact dir sync: %w", err)
		return j.err
	}
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.Sync() //nolint:errcheck // best effort on close
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// appendRecord frames one record onto buf: uvarint payload length,
// payload, big-endian CRC32 of the payload.
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	// Reserve a maximal (10-byte) length prefix, encode the payload in
	// place, then move it down over the canonical-length prefix — one
	// pass, no second buffer.
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	payloadStart := len(buf)
	buf = appendPayload(buf, &rec)
	payload := buf[payloadStart:]
	var head [10]byte
	hn := binary.PutUvarint(head[:], uint64(len(payload)))
	copy(buf[start:], head[:hn])
	n := copy(buf[start+hn:], payload)
	buf = buf[:start+hn+n]
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[start+hn:]))
	return append(buf, crc[:]...)
}

// appendPayload encodes a record's payload (kind byte first).
func appendPayload(buf []byte, rec *Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(rec.Job))
	switch rec.Kind {
	case KindDispatched, KindConfirmed:
		buf = binary.AppendUvarint(buf, uint64(rec.Node))
	case KindDispatchedBatch:
		buf = wirefmt.AppendIndices(buf, rec.Nodes)
		buf = appendTrailing(buf, rec.Confirmed)
	case KindTerminal:
		done := byte(0)
		if rec.Done {
			done = 1
		}
		buf = append(buf, done)
		buf = wirefmt.AppendBytes(buf, rec.Error)
		buf = appendTrailing(buf, rec.Confirmed)
	case KindAdmit:
		a := rec.Admit
		buf = wirefmt.AppendBytes(buf, a.Algorithm)
		buf = binary.AppendUvarint(buf, uint64(a.Interval))
		buf = append(buf, a.Mode)
		flags := byte(0)
		if a.Recoverable {
			flags |= 1
		}
		buf = append(buf, flags)
		if a.Recoverable {
			buf = binary.AppendUvarint(buf, uint64(len(a.Old)))
			for _, v := range a.Old {
				buf = binary.AppendUvarint(buf, v)
			}
			buf = binary.AppendUvarint(buf, uint64(len(a.New)))
			for _, v := range a.New {
				buf = binary.AppendUvarint(buf, v)
			}
			buf = binary.AppendUvarint(buf, a.Waypoint)
			buf = binary.BigEndian.AppendUint32(buf, a.NWDst)
			buf = binary.AppendUvarint(buf, a.Props)
			buf = wirefmt.AppendIndices(buf, a.Cleanup)
			buf = wirefmt.AppendBytes(buf, a.Plan)
		}
	}
	return buf
}

// appendTrailing encodes an optional trailing index list: nothing at
// all when it is empty, so a record without one keeps its old bytes.
func appendTrailing(buf []byte, idx []int) []byte {
	if len(idx) == 0 {
		return buf
	}
	return wirefmt.AppendIndices(buf, idx)
}

// maxList bounds decoded list lengths (paths, plan and error byte
// lengths) against adversarial payloads.
const maxList = 1 << 26

// decodeRecord parses one record payload into a Record of its own.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	err := decodeInto(&rec, payload, true)
	return rec, err
}

// decodeInto parses one record payload into rec: canonical uvarints
// only, ints no larger than math.MaxInt, index lists strictly
// ascending, every flag byte one of its encodings, trailing bytes
// rejected — so every record has exactly one byte representation
// (decode→encode identity). With own set, rec gets lists and strings of
// its own. Without, decodeInto allocates nothing once rec's lists have
// grown: they reuse rec's arrays, and rec.Admit, whatever the kind
// (fields another kind has keep their arrays and mean nothing);
// Admit.Plan aliases the payload; Error and Admit.Algorithm stay empty
// — a fold decodes the payloads it keeps again, with own set.
func decodeInto(rec *Record, payload []byte, own bool) error {
	d := wirefmt.NewDecoder(payload, ErrJournal)
	if own {
		*rec = Record{}
	}
	*rec = Record{Kind: Kind(d.Byte()), Job: d.Int(),
		Nodes: rec.Nodes[:0], Confirmed: rec.Confirmed[:0], Admit: rec.Admit}
	switch rec.Kind {
	case KindDispatched, KindConfirmed:
		rec.Node = d.Int()
	case KindDispatchedBatch:
		rec.Nodes = d.Indices(rec.Nodes, math.MaxInt)
		rec.Confirmed = trailing(&d, rec.Confirmed, len(payload))
	case KindTerminal:
		rec.Done = d.Flag()
		msg := d.Bytes(maxList)
		if own {
			rec.Error = string(msg)
		}
		rec.Confirmed = trailing(&d, rec.Confirmed, len(payload))
	case KindAdmit:
		a := rec.Admit
		if a == nil {
			a = &Admit{}
		} else {
			*a = Admit{Old: a.Old[:0], New: a.New[:0], Cleanup: a.Cleanup[:0]}
		}
		alg := d.Bytes(maxList)
		if own {
			a.Algorithm = string(alg)
		}
		a.Interval = time.Duration(d.Uvarint())
		a.Mode = d.Byte()
		if a.Recoverable = d.Flag(); a.Recoverable {
			a.Old = ids(&d, a.Old)
			a.New = ids(&d, a.New)
			a.Waypoint = d.Uvarint()
			if b := d.Take(4); b != nil {
				a.NWDst = binary.BigEndian.Uint32(b)
			}
			a.Props = d.Uvarint()
			a.Cleanup = d.Indices(a.Cleanup, math.MaxInt)
			a.Plan = d.Bytes(maxList)
			if own {
				a.Plan = append([]byte(nil), a.Plan...)
			}
		}
		rec.Admit = a
	default:
		return fmt.Errorf("journal: record kind %d: %w", rec.Kind, ErrJournal)
	}
	return d.End()
}

// ids decodes a length-prefixed uvarint list onto dst.
func ids(d *wirefmt.Decoder, dst []uint64) []uint64 {
	n := d.Len(maxList)
	for i := 0; i < n && d.Err() == nil; i++ {
		dst = append(dst, d.Uvarint())
	}
	return dst
}

// trailing decodes an appendTrailing list onto dst, which is empty:
// absent when the payload, end bytes long, ends here, and never empty
// when present.
func trailing(d *wirefmt.Decoder, dst []int, end int) []int {
	if d.Off() == end {
		return dst
	}
	if dst = d.Indices(dst, math.MaxInt); len(dst) == 0 {
		d.Fail("empty trailing list") // an empty list is written as no list
	}
	return dst
}

// RetainFinished is how many finished jobs a fold keeps: the newest,
// the ones a restarted controller keeps answering for.
const RetainFinished = 1024

// maxNode bounds the plan-node indices a fold keeps sets of: no plan
// the codec decodes has more nodes, so a larger index names none.
const maxNode = 1 << 20

// State is what Open folded a journal's records into.
type State struct {
	// Frames counts the intact records read.
	Frames int
	// LastJob is the highest job id any record names.
	LastJob int
	// Live lists the admitted jobs with no terminal record, by id.
	Live []LiveJob
	// Finished lists the newest RetainFinished jobs with a terminal
	// record, in the order they finished.
	Finished []FinishedJob
	// Forgotten counts the finished jobs older than those.
	Forgotten int
}

// LiveJob is an unfinished job as its records left it.
type LiveJob struct {
	ID    int
	Admit *Admit
	// Dispatched and Confirmed are the journaled node sets, indexed by
	// plan node and as long as their highest member plus one.
	Dispatched, Confirmed []bool
}

// FinishedJob is a job whose terminal record was read.
type FinishedJob struct {
	ID    int
	Admit *Admit
	Done  bool
	Error string
}

// folder is one fold's state. Records name jobs by id; a job exists
// from its admit record on — records of a job not admitted (or
// finished) before them are dropped — and leaves the live set on its
// terminal record. Payloads alias the file's bytes and are decoded for
// good only for the jobs the fold returns.
type folder struct {
	st   State
	live map[int]*liveFold
	free []*liveFold    // finished jobs' states, for reuse
	done []finishedFold // ring of the newest finished jobs
	head int            // done's oldest entry once it is full
	rec  Record         // decode scratch
}

type liveFold struct {
	id                    int
	admit                 []byte // the admit record's payload
	dispatched, confirmed []bool
}

type finishedFold struct {
	id              int
	admit, terminal []byte // payloads
}

// fold folds data's valid record prefix (see frames) into State.
func fold(data []byte) (State, int, error) {
	f := folder{live: make(map[int]*liveFold)}
	valid, err := frames(data, f.add)
	if err != nil {
		return State{}, 0, err
	}
	return f.result(), valid, nil
}

// add folds one payload, or refuses it as malformed.
func (f *folder) add(payload []byte) bool {
	rec := &f.rec
	if decodeInto(rec, payload, false) != nil {
		return false
	}
	f.st.Frames++
	f.st.LastJob = max(f.st.LastJob, rec.Job)
	lj := f.live[rec.Job]
	switch {
	case rec.Kind == KindAdmit:
		if lj == nil {
			lj = f.admit(rec.Job)
		}
		lj.admit = payload
	case lj == nil:
	case rec.Kind == KindDispatched:
		lj.dispatched = mark(lj.dispatched, rec.Node)
	case rec.Kind == KindConfirmed:
		lj.confirmed = mark(lj.confirmed, rec.Node)
	case rec.Kind == KindDispatchedBatch:
		for _, i := range rec.Nodes {
			lj.dispatched = mark(lj.dispatched, i)
		}
		for _, i := range rec.Confirmed {
			lj.confirmed = mark(lj.confirmed, i)
		}
	case rec.Kind == KindTerminal:
		f.finish(lj, payload)
	}
	return true
}

// admit makes job id live, on a finished job's recycled state if any.
func (f *folder) admit(id int) *liveFold {
	var lj *liveFold
	if n := len(f.free); n > 0 {
		lj, f.free = f.free[n-1], f.free[:n-1]
	} else {
		lj = &liveFold{}
	}
	lj.id = id
	f.live[id] = lj
	return lj
}

// finish moves a live job to the ring of finished ones, where it
// replaces the oldest once the ring is full.
func (f *folder) finish(lj *liveFold, terminal []byte) {
	fin := finishedFold{id: lj.id, admit: lj.admit, terminal: terminal}
	if len(f.done) < RetainFinished {
		f.done = append(f.done, fin)
	} else {
		f.done[f.head] = fin
		f.head = (f.head + 1) % len(f.done)
		f.st.Forgotten++
	}
	delete(f.live, lj.id)
	clear(lj.dispatched)
	clear(lj.confirmed)
	lj.dispatched, lj.confirmed = lj.dispatched[:0], lj.confirmed[:0]
	f.free = append(f.free, lj)
}

// mark adds plan node i to set, growing it as needed.
func mark(set []bool, i int) []bool {
	if i < 0 || i >= maxNode {
		return set
	}
	if i >= len(set) {
		set = slices.Grow(set, i+1-len(set))[:i+1]
	}
	set[i] = true
	return set
}

// result decodes the kept jobs' payloads for good. They were decoded
// once already, so they cannot fail now.
func (f *folder) result() State {
	st := f.st
	st.Live = make([]LiveJob, 0, len(f.live))
	for _, lj := range f.live {
		a, _ := decodeRecord(lj.admit) //nolint:errcheck // see above
		st.Live = append(st.Live, LiveJob{ID: lj.id, Admit: a.Admit, Dispatched: lj.dispatched, Confirmed: lj.confirmed})
	}
	slices.SortFunc(st.Live, func(a, b LiveJob) int { return a.ID - b.ID })
	st.Finished = make([]FinishedJob, len(f.done))
	for i := range st.Finished {
		fin := &f.done[(f.head+i)%len(f.done)]
		a, _ := decodeRecord(fin.admit)    //nolint:errcheck // see above
		t, _ := decodeRecord(fin.terminal) //nolint:errcheck // see above
		st.Finished[i] = FinishedJob{ID: fin.id, Admit: a.Admit, Done: t.Done, Error: t.Error}
	}
	return st
}
