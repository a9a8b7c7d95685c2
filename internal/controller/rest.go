package controller

import (
	"encoding/json"
	"net/http"
)

// RESTHandler serves the controller's HTTP API, the versioned /v1
// surface (see restv1.go and internal/api for the wire schema).
func (c *Controller) RESTHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/updates", c.handleV1SubmitBatch)
	mux.HandleFunc("GET /v1/updates", c.handleV1Jobs)
	mux.HandleFunc("GET /v1/updates/{id}", c.handleV1JobStatus)
	mux.HandleFunc("GET /v1/updates/{id}/watch", c.handleV1Watch)
	mux.HandleFunc("POST /v1/verify", c.handleV1Verify)
	mux.HandleFunc("POST /v1/explore", c.handleV1Explore)
	mux.HandleFunc("POST /v1/policies", c.handleV1Policies)
	mux.HandleFunc("GET /v1/healthz", c.handleV1Healthz)
	mux.HandleFunc("GET /v1/switches", c.handleSwitches)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // response writer errors are the client's problem
}

func (c *Controller) handleSwitches(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Datapaths())
}
