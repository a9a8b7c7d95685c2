// Package client builds a second HTTP client, with a timeout.
package client

import (
	"net/http"
	"time"
)

// Client is the SDK client.
type Client struct{ hc *http.Client }

// New builds the one client.
func New() *Client { return &Client{hc: &http.Client{}} }

// Watch builds another.
func (c *Client) Watch() *http.Client {
	return &http.Client{Timeout: time.Second}
}
