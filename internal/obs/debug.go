package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// published maps expvar names to the registry currently backing them.
// expvar.Publish panics on duplicate names, so re-publishing under the
// same name just swaps the backing registry.
var published = struct {
	sync.Mutex
	regs map[string]*Registry
}{regs: map[string]*Registry{}}

// PublishExpvar exposes r's live snapshot as the named expvar (visible on
// /debug/vars). Calling it again with the same name rebinds the variable
// to the new registry; a nil registry publishes empty snapshots.
func PublishExpvar(name string, r *Registry) {
	published.Lock()
	defer published.Unlock()
	if _, ok := published.regs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			published.Lock()
			reg := published.regs[name]
			published.Unlock()
			return reg.Snapshot()
		}))
	}
	published.regs[name] = r
}

// Route is one extra handler mounted on the debug server, alongside the
// built-in /debug/vars and /debug/pprof endpoints.
type Route struct {
	Pattern string
	Handler http.Handler
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

// ServeDebug starts an HTTP server on addr exposing /debug/vars (expvar,
// including anything published via PublishExpvar) and /debug/pprof/*
// (net/http/pprof), plus any extra routes. It serves from a background
// goroutine; the caller owns shutdown via Close or Shutdown. Registration
// failures (a duplicate or malformed route pattern) close the listener
// before returning, so ":0" probes cannot leak sockets.
func ServeDebug(addr string, extra ...Route) (_ *DebugServer, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		// mux.Handle panics on duplicate or invalid patterns; turn that
		// into an error and release the listener.
		if r := recover(); r != nil {
			ln.Close()
			err = fmt.Errorf("obs: debug route registration: %v", r)
		}
	}()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
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
