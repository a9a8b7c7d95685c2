// Package synth stands in for the synthesizer.
package synth

// Options configures a synthesis; bench/ alone may set its Seed.
type Options struct{ Seed int64 }
