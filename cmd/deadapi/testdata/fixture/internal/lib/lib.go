// Package lib holds one identifier of each kind the guard tells apart.
package lib

// Used has a caller outside tests.
func Used() int { return 1 }

// Unused has no caller at all.
func Unused() int { return 2 }

// TestOnly has a caller in a test only.
func TestOnly() int { return 3 }

// Allowed has no caller, and a line in the allowlist.
func Allowed() int { return 4 }

// Kept is used. String only satisfies fmt.Stringer; Close matches
// io.Closer, an interface no code of the module uses.
type Kept struct{}

func (Kept) String() string { return "kept" }

func (Kept) Close() error { return nil }
