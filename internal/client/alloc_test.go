//go:build !race

package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
)

// TestClientWaitAllocs pins what a plain Wait on a finished 34-install
// job costs — a watch replay of 34 installs, 2 rounds and the terminal
// event, then the status — against a server that writes canned bytes:
// the events nobody is called back for are counted, not decoded, the
// status arrays are decoded at their final size, and no URL is parsed.
// The figure is the whole process's, net/http's share on both sides
// included; decoding every event it was 545 allocations, and it is 186.
// Through a pass-through RoundTripper it stays within 2 of that: the
// timeout is a context deadline, not http.Client.Timeout, whose timer
// goroutine, channels and request copy such a transport used to pay.
func TestClientWaitAllocs(t *testing.T) {
	st := api.JobStatus{ID: 7, State: "done", Algorithm: "peacock", Plan: &api.PlanShape{Nodes: 34, Depth: 2}}
	var replay bytes.Buffer
	frame := func(ev api.WatchEvent) {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(&replay, "event: %s\ndata: %s\n\n", ev.Type, b)
	}
	for r := 0; r < 2; r++ {
		round := api.RoundStatus{Round: r, Micros: 4300}
		for s := uint64(1); s <= 17; s++ {
			is := api.InstallStatus{Switch: s, Layer: r, FlowMods: 1, Micros: 4200}
			st.Installs = append(st.Installs, is)
			round.Switches = append(round.Switches, s)
			frame(api.WatchEvent{Type: api.EventInstall, Job: 7, Install: &is})
			if r == 0 {
				st.MessagesPerSwitch = append(st.MessagesPerSwitch, api.MessageCount{Switch: s, Ctrl: 6})
			}
		}
		st.Rounds = append(st.Rounds, round)
		frame(api.WatchEvent{Type: api.EventRound, Job: 7, Round: &round})
	}
	frame(api.WatchEvent{Type: api.EventDone, Job: 7, TotalMicros: 8600})
	status, _ := json.Marshal(st)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/updates/7/watch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write(replay.Bytes()) //nolint:errcheck // test server
	})
	mux.HandleFunc("GET /v1/updates/7", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(status) //nolint:errcheck // test server
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	allocs := func(c *client.Client) float64 {
		return testing.AllocsPerRun(50, func() {
			got, err := c.Wait(context.Background(), 7)
			if err != nil || got.State != "done" || len(got.Installs) != 34 || len(got.Rounds) != 2 || len(got.MessagesPerSwitch) != 17 {
				t.Fatalf("Wait: %+v, %v", got, err)
			}
		})
	}
	bare := allocs(client.New(srv.URL))
	if bare > 200 {
		t.Fatalf("Wait = %.1f allocs/op, want <= 200", bare)
	}
	// A RoundTripper that only forwards, as a metering or tracing one
	// does: the timeout must not cost it more than the bare transport.
	wrapped := allocs(client.New(srv.URL, client.WithHTTPClient(&http.Client{Transport: passThrough{http.DefaultTransport}}), client.WithTimeout(30*time.Second)))
	if wrapped > bare+2 {
		t.Fatalf("Wait through a wrapping transport = %.1f allocs/op, bare %.1f: want within 2", wrapped, bare)
	}
}
