// Package http stands in for the standard library's net/http, whose
// source takes longer to type-check than the whole fixture.
package http

import "time"

// Client is an HTTP client.
type Client struct{ Timeout time.Duration }
