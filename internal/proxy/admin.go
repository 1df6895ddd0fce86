package proxy

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

// adminStatsz is the /statsz document: the same Stats snapshot the
// SIGUSR1 report prints (one source of truth), plus process-level context
// an operator wants next to it.
type adminStatsz struct {
	Stats      Stats  `json:"stats"`
	Goroutines int    `json:"goroutines"`
	UptimeMS   int64  `json:"uptime_ms"`
	StartedAt  string `json:"started_at"`
}

// AdminHandler returns the server's admin plane, served by proxyd's
// -admin listener (and mountable anywhere an http.Handler fits):
//
//	/healthz       liveness: "ok" while the server has not been closed
//	/metrics       Prometheus text exposition of the metrics registry
//	/statsz        JSON Stats snapshot — the same snapshot SIGUSR1 prints
//	/tracez        JSON array of recent request spans, oldest first
//	/eventsz       JSON array of recent wide events (Config.Events ring)
//	/debug/pprof/  the standard Go profiling endpoints
//
// /tracez and /eventsz take ?name= (keep only spans/events with that
// span name, e.g. "fetch" or "serve") and ?limit=N (keep only the most
// recent N after filtering), so an operator can pull just the slice they
// want from a busy proxyd.
//
// The handler holds no locks across requests and reads the same atomics
// the dataplane writes, so scraping it is safe under full load.
func (s *Server) AdminHandler() http.Handler {
	started := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.closed:
			http.Error(w, "closing", http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ok\n"))
		}
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.reg.Snapshot())
	})

	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		doc := adminStatsz{
			Stats:      s.Stats(),
			Goroutines: runtime.NumGoroutine(),
			UptimeMS:   time.Since(started).Milliseconds(),
			StartedAt:  started.UTC().Format(time.RFC3339),
		}
		writeAdminJSON(w, doc)
	})

	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		spans := s.tracer.Snapshot()
		if spans == nil {
			spans = []obs.SpanData{}
		}
		if name := r.URL.Query().Get("name"); name != "" {
			kept := spans[:0]
			for _, d := range spans {
				if d.Name == name {
					kept = append(kept, d)
				}
			}
			spans = kept
		}
		spans = spans[len(spans)-adminLimit(r, len(spans)):]
		writeAdminJSON(w, spans)
	})

	mux.HandleFunc("/eventsz", func(w http.ResponseWriter, r *http.Request) {
		events := s.events.Recent()
		if events == nil {
			events = []export.Event{}
		}
		if name := r.URL.Query().Get("name"); name != "" {
			kept := events[:0]
			for _, e := range events {
				if e.Span == name {
					kept = append(kept, e)
				}
			}
			events = kept
		}
		events = events[len(events)-adminLimit(r, len(events)):]
		writeAdminJSON(w, events)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// adminLimit resolves ?limit=N against a slice of n entries: the count to
// keep from the tail (most recent). Absent, unparsable or out-of-range
// values keep everything.
func adminLimit(r *http.Request, n int) int {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return n
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v > n {
		return n
	}
	return v
}

func writeAdminJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
