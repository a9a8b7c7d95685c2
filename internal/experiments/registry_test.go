package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestRegistryListed checks the one experiment index: ids unique, every
// entry described and runnable, and every id a row of the README's
// experiment table.
func TestRegistryListed(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("%s is registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("%s: missing description or runner", e.ID)
		}
		if !strings.Contains(string(readme), "\n| "+e.ID+" | ") {
			t.Errorf("%s has no row in README.md's experiment table", e.ID)
		}
	}
}
