// Package journal stands in for the tree's write-ahead journal.
package journal

import "os"

// Kind is a record kind.
type Kind int

// The per-node record kinds.
const (
	KindDispatched Kind = 2
	KindConfirmed  Kind = 3
)

// Admit is a job's admit record.
type Admit struct{ Recoverable bool }

// Journal is an open journal.
type Journal struct{ f *os.File }

var dirSync = (*os.File).Sync

func (j *Journal) commit() error { return j.f.Sync() }

// Compact syncs its snapshot and the directory.
func (j *Journal) Compact(dir *os.File) error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	return dirSync(dir)
}

// Sync goes through commit.
func (j *Journal) Sync() error { return j.commit() }

// Close syncs the file on its own.
func (j *Journal) Close() error {
	j.Sync()
	return j.f.Sync()
}

// Replayed is the old record slice.
func (j *Journal) Replayed() []Kind { return []Kind{KindDispatched, KindConfirmed} }
