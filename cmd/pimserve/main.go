// Command pimserve runs the scheduling service over HTTP: a
// long-running pool of workers that schedules traces on demand, with a
// fingerprint-keyed cache of residence tables shared across requests.
//
// Start a server and schedule a trace:
//
//	pimserve -addr :8080 &
//	curl -X POST -d @request.json 'localhost:8080/schedule?verify=true'
//	curl localhost:8080/stats
//
// The request body is JSON: {"trace": "<pimtrace v1 text>",
// "algorithm": "gomcds", "capacity": 2}. See examples/pimserve for a
// runnable walkthrough. The server sheds load with 429 + Retry-After
// once -inflight computations are running, times requests out after
// -timeout, and drains in-flight work on SIGINT/SIGTERM before exiting.
//
// Observability: GET /metrics serves Prometheus text exposition
// (request counters, cache counters, per-stage latency histograms);
// -access-log logs one slog line per request; -debug-addr starts a
// second listener serving net/http/pprof and expvar — bind it to
// loopback, the profiles expose process internals.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	inflight := fs.Int("inflight", 2*runtime.GOMAXPROCS(0), "max concurrent schedule computations; 0 = unbounded")
	cacheBytes := fs.Int64("cache-bytes", service.DefaultCacheBytes, "residence-table cache byte budget: compressed tables, their schedule memos and a fixed per-entry overhead")
	maxTableCells := fs.Int64("max-table-cells", service.DefaultMaxTableCells, "max residence-table cells accepted per trace or shipped table payload")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline; 0 = none")
	maxBody := fs.Int64("max-body", service.DefaultMaxBodyBytes, "request body limit in bytes")
	maxBatch := fs.Int("max-batch", service.DefaultMaxBatchSpecs, "max specs per /schedule/batch request")
	peerFill := fs.Bool("peer-fill", false, "adopt residence tables from cluster peers when a router supplies a peer hint, instead of rebuilding locally")
	peerFillTimeout := fs.Duration("peer-fill-timeout", service.DefaultPeerFillTimeout, "deadline for one peer table fetch before falling back to a local build")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	debugAddr := fs.String("debug-addr", "", "optional pprof/expvar listener (e.g. 127.0.0.1:6060); the handlers expose heap contents and build info, so bind loopback or firewall it")
	accessLog := fs.Bool("access-log", false, "log every request (method, path, status, bytes, duration) via slog")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	opts := serveOptions{accessLog: *accessLog}
	if *debugAddr != "" {
		opts.debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
	}
	cfg := service.Config{
		MaxInflight:     *inflight,
		CacheBytes:      *cacheBytes,
		Timeout:         *timeout,
		MaxBodyBytes:    *maxBody,
		MaxBatchSpecs:   *maxBatch,
		MaxTableCells:   *maxTableCells,
		PeerFillTimeout: *peerFillTimeout,
	}
	if *peerFill {
		cfg.PeerFill = cluster.NewPeerFill(nil, *maxTableCells)
	}
	return serve(ctx, ln, cfg, *drain, out, opts)
}

// serveOptions carries the optional observability surfaces: an access
// log on the main listener and a separate pprof/expvar debug listener.
type serveOptions struct {
	accessLog bool
	debugLn   net.Listener // nil = no debug listener
}

// serve runs the service on the listener until ctx is cancelled, then
// shuts the HTTP server down gracefully and drains the service's
// in-flight computations. Split from run so tests can drive it on an
// ephemeral port.
func serve(ctx context.Context, ln net.Listener, cfg service.Config, drain time.Duration, out io.Writer, opts serveOptions) error {
	svc := service.New(cfg)
	handler := http.Handler(svc.Handler())
	if opts.accessLog {
		handler = obs.AccessLog(slog.New(slog.NewTextHandler(out, nil)), handler)
	}
	server := &http.Server{Handler: handler}

	fmt.Fprintf(out, "pimserve: listening on %s (inflight %d, cache-bytes %d, timeout %v, peer-fill %v)\n",
		ln.Addr(), cfg.MaxInflight, cfg.CacheBytes, cfg.Timeout, cfg.PeerFill != nil)

	var debugServer *http.Server
	if opts.debugLn != nil {
		debugServer = &http.Server{Handler: obs.DebugHandler()}
		fmt.Fprintf(out, "pimserve: debug listening on %s (pprof, expvar)\n", opts.debugLn.Addr())
		go func() { debugServer.Serve(opts.debugLn) }()
	}

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	select {
	case err := <-errc:
		if debugServer != nil {
			debugServer.Close()
		}
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "pimserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := server.Shutdown(shutdownCtx)
	if debugServer != nil {
		if dbgErr := debugServer.Shutdown(shutdownCtx); err == nil {
			err = dbgErr
		}
	}
	if closeErr := svc.Close(); err == nil {
		err = closeErr
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	fmt.Fprintln(out, "pimserve: drained")
	return err
}
