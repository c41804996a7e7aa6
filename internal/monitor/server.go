package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"unprotected/internal/cluster"
)

// Handler returns the monitor's HTTP surface:
//
//	GET /study       full study report (JSON, pre-marshalled per epoch;
//	                 ETag "<epoch>", If-None-Match answered 304)
//	GET /metrics     Prometheus text exposition
//	GET /healthz     liveness + current epoch
//	GET /nodes       every node's verdict (JSON array)
//	GET /nodes/{id}  one node's verdict ("02-04" form)
//
// Every handler reads the epoch pointer once and serves from that
// immutable snapshot: N concurrent readers never block each other or the
// ingest loop, and no lock is held across any render. Before the first
// poll round completes the study endpoints answer 503, so an orchestrator
// probing /healthz holds traffic until the backlog is served.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /study", func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("ETag", snap.etag)
		if etagMatch(r.Header.Get("If-None-Match"), snap.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(snap.studyJSON)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		if snap == nil {
			http.Error(w, `{"status":"starting","epoch":0}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","epoch":%d}`, snap.Epoch)
	})
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap.Report.Nodes)
	})
	mux.HandleFunc("GET /nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap := m.Snapshot()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		id, err := cluster.ParseNodeID(r.PathValue("id"))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad node id: %v", err), http.StatusBadRequest)
			return
		}
		v, ok := snap.byNode[id.String()]
		if !ok {
			http.Error(w, "node not seen", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	})
	return mux
}

// etagMatch reports whether an If-None-Match header names etag: "*", or
// a comma-separated list holding it, weak or strong (RFC 9110 compares
// If-None-Match weakly).
func etagMatch(header, etag string) bool {
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimPrefix(strings.TrimSpace(tag), "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}
