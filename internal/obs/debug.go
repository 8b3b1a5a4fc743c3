package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Mount registers the observability handler set on mux, the one set that
// bstcd, bstcgw and both -debug-addr servers serve:
//
//	GET /metrics  reg's Snapshot as JSON; the Prometheus text exposition
//	              (WritePrometheus plus slos' bstc_slo_* block) on
//	              ?format=prom or a text/plain Accept header
//	GET /slo      slos' reports as a JSON array
//	GET /tracez   tracez, a trace.Recorder's Handler (not mounted when nil)
//
// A nil reg or slos serves empty documents.
func Mount(mux *http.ServeMux, reg *Registry, slos *SLOSet, tracez http.Handler) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			w.Header().Set("Content-Type", PromContentType)
			WritePrometheus(w, reg) //nolint:errcheck // response committed
			slos.WriteProm(w)       //nolint:errcheck // response committed
			return
		}
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, slos.Report())
	})
	if tracez != nil {
		mux.Handle("/tracez", tracez)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response committed
}

// DebugServer is the background HTTP server started by ServeDebug. It
// owns its listener: Close tears it down immediately, Shutdown drains
// in-flight requests first. Both are idempotent.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener

	done chan struct{} // closed when Serve returns
	once sync.Once
}

// Addr returns the server's resolved listen address (useful with ":0").
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close stops the server immediately, closing the listener and any active
// connections. Safe to call more than once and on nil.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	var err error
	d.once.Do(func() {
		err = d.srv.Close()
		<-d.done
	})
	return err
}

// Shutdown stops accepting connections and waits for in-flight requests
// to finish, up to ctx's deadline; the listener is closed either way.
// Safe to call more than once and on nil.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil {
		return nil
	}
	var err error
	d.once.Do(func() {
		err = d.srv.Shutdown(ctx)
		<-d.done
	})
	return err
}

// ServeDebug starts an HTTP server on addr exposing /debug/pprof/*
// (net/http/pprof: heap?debug=1 carries the runtime memstats, cmdline the
// command line) and the Mount handler set over reg, slos and tracez. It
// serves from a background goroutine; the caller owns shutdown via Close
// or Shutdown.
func ServeDebug(addr string, reg *Registry, slos *SLOSet, tracez http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	Mount(mux, reg, slos, tracez)
	d := &DebugServer{
		srv:  &http.Server{Addr: ln.Addr().String(), Handler: mux},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	}()
	return d, nil
}
