// Command pimrouter fronts a fleet of pimserve shards with a
// consistent-hash router: requests carrying a trace are pinned to one
// shard by trace fingerprint (so each residence table is built and
// cached exactly once fleet-wide), and session requests stick to the
// shard that created the session.
//
// Start three shards and a router:
//
//	pimserve -addr :8081 -peer-fill &
//	pimserve -addr :8082 -peer-fill &
//	pimserve -addr :8083 -peer-fill &
//	pimrouter -addr :8080 -backends localhost:8081,localhost:8082,localhost:8083
//	curl -X POST -d @request.json localhost:8080/schedule
//
// The router health-checks every backend on -health-interval, ejecting
// unresponsive shards from the ring (their keys drain to ring
// neighbours) and readmitting them when they recover. A request that
// hits a dying shard is retried once against the key's new owner;
// with an empty ring the router sheds with 503 + Retry-After. An
// ejected backend must pass two consecutive probes before it rejoins,
// so a flapping shard does not remap its keys every interval. With
// -peer-fill (default on) the router tells each shard which peer owned
// its keys before a ring change, so a shard inheriting keys can adopt
// the already-built tables instead of rebuilding them; it also enables
// replication: each key's table is pushed to its next -replication-1
// ring owners after the primary serves it, so a shard death fails
// schedules over to a replica that already holds the table (no
// rebuild). A replica that answers a push with 501 (a pimserve started
// without -peer-fill) is not asked again for that key until it is
// ejected or the router's bounded fill ledger forgets the key.
// Identical requests are not coalesced here: each is forwarded, and
// the owning shard's schedule memo runs the scheduler once per (trace,
// algorithm, capacity). A request body the router has routed before is
// keyed through its bounded alias with no JSON decode, and a known
// trace text under a new body without a trace decode. A replica push
// names the table by the fingerprint and shape the router routed by,
// never by the trace text.
//
// POST /admin/drain?backend=URL takes a shard out administratively:
// its pinned sessions are exported, imported on their new owners
// (bit-identical resume), and only then does the shard leave the
// ring; POST /admin/undrain?backend=URL lets the health loop readmit
// it.
//
// GET /metrics serves Prometheus text exposition of the router's own
// counters (pim_router_*); GET /stats returns them as JSON along with
// ring membership.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimrouter:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	backends := fs.String("backends", "", "comma-separated pimserve base URLs (required; host:port implies http://)")
	replication := fs.Int("replication", cluster.DefaultReplication, "ring owners per fingerprint key (primary + pushed replicas); 1 disables replication")
	peerFill := fs.Bool("peer-fill", true, "attach peer-owner hints so shards can adopt tables from the previous key owner")
	healthInterval := fs.Duration("health-interval", cluster.DefaultHealthInterval, "backend health probe period; <0 disables probing")
	healthTimeout := fs.Duration("health-timeout", cluster.DefaultHealthTimeout, "deadline for one health probe")
	maxBody := fs.Int64("max-body", cluster.DefaultRouterMaxBody, "request body limit in bytes")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls, err := parseBackends(*backends)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, cluster.RouterConfig{
		Backends:       urls,
		Replication:    *replication,
		PeerFill:       *peerFill,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		MaxBodyBytes:   *maxBody,
	}, *drain, out)
}

// parseBackends splits the -backends list, defaulting bare host:port
// entries to http://.
func parseBackends(list string) ([]string, error) {
	var urls []string
	for _, b := range strings.Split(list, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return nil, fmt.Errorf("backend %q: only http and https are supported", b)
		}
		urls = append(urls, b)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-backends is required: comma-separated pimserve URLs")
	}
	return urls, nil
}

// serve runs the router on the listener until ctx is cancelled, then
// shuts down gracefully. Split from run so tests can drive it on an
// ephemeral port.
func serve(ctx context.Context, ln net.Listener, cfg cluster.RouterConfig, drain time.Duration, out io.Writer) error {
	router := cluster.NewRouter(cfg)
	server := &http.Server{Handler: router.Handler()}

	fmt.Fprintf(out, "pimrouter: listening on %s, %d backends (replication %d, peer-fill %v, health every %v)\n",
		ln.Addr(), router.Ring().Len(), router.Stats().Replication, cfg.PeerFill, cfg.HealthInterval)

	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	select {
	case err := <-errc:
		router.Close()
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "pimrouter: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := server.Shutdown(shutdownCtx)
	router.Close()
	<-errc // Serve has returned http.ErrServerClosed by now
	fmt.Fprintln(out, "pimrouter: drained")
	return err
}
