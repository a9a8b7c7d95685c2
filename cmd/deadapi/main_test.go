package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFixtureReport runs the guard on testdata/fixture, a module with
// one identifier of each kind: used, unused, called from a test only, a
// method that only satisfies fmt.Stringer, a method that matches only an
// interface nothing uses (io.Closer), allowlisted, and a stale allowlist
// entry.
func TestFixtureReport(t *testing.T) {
	got, err := check("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:8: internal/lib.Unused: no reference outside tests",
		"internal/lib/lib.go:11: internal/lib.TestOnly: no reference outside tests",
		"internal/lib/lib.go:22: internal/lib.Kept.Close: no reference outside tests",
		"deadapi-allow.txt:3: internal/lib.Gone: stale, names no exported identifier under internal/",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
