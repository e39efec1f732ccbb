// Package telemetry serves a process's live observability plane over
// HTTP: the metrics registry in Prometheus text format, a JSON /varz
// digest, an index-health probe, and the standard pprof profilers. It
// is the read side only — instruments live in internal/metrics and are
// fed by the serving layer (internal/serve) and the PIM monitor
// (internal/obs); this package never touches the index and is safe to
// scrape at any rate while the system is under load.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition of the registry
//	/varz          JSON digest (counters/gauges plain, histograms as
//	               count/sum/mean/p50/p95/p99/p999/max)
//	/healthz       200 "ok" while the index is healthy, 503 with a
//	               JSON body once degraded or modules are dead
//	/debug/pprof/  net/http/pprof profilers
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
)

// Options configures a telemetry server.
type Options struct {
	// Addr is the listen address, e.g. "127.0.0.1:9090" or ":0" for an
	// ephemeral port (Server.Addr reports the bound address).
	Addr string
	// Registry backs /metrics and /varz; nil serves empty documents.
	Registry *metrics.Registry
	// Health, when non-nil, backs /healthz; it must be safe to call from
	// any goroutine. Nil reports healthy unconditionally.
	Health func() pimtrie.Health
}

// Server is a running telemetry endpoint. Construct with Start, stop
// with Close.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start binds opts.Addr and begins serving in a background goroutine.
func Start(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", opts.Addr, err)
	}
	s := &Server{opts: opts, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/varz", s.handleVarz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.opts.Registry != nil {
		_ = s.opts.Registry.WritePrometheus(w)
	}
}

func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	v := map[string]any{}
	if s.opts.Registry != nil {
		v = s.opts.Registry.Varz()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// healthzBody is /healthz's 503 JSON payload.
type healthzBody struct {
	Degraded    bool  `json:"degraded"`
	DeadModules []int `json:"dead_modules"`
	Recoveries  int   `json:"recoveries"`
	ModulesLost int   `json:"modules_lost"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Health == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	h := s.opts.Health()
	if !h.Degraded && len(h.DeadModules) == 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(healthzBody{
		Degraded:    h.Degraded,
		DeadModules: h.DeadModules,
		Recoveries:  h.Recoveries,
		ModulesLost: h.ModulesLost,
	})
}
