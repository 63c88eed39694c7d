package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// numShards and replication fix the fleet's shape: a router with R=2
// replicated ownership and peer fill in front of three shards, all on
// loopback listeners inside this process. One process is what lets the
// traced run reach the router's client transport, the shards' stage
// sinks and the peer-fill hook.
const (
	numShards   = 3
	replication = 2
)

// Headers the benchmark's own wrappers use to carry an op id across
// hops. The wrappers strip them before the program sees the request.
const (
	opHeader     = "X-Fleetbench-Op"
	parentHeader = "X-Fleetbench-Parent"
)

// fleet is one booted router + shards stack. tracer is nil outside the
// traced phase; every wrapper checks it per request, so a phase can
// switch tracing on without rebooting the fleet.
type fleet struct {
	svcs      []*service.Service
	servers   []*http.Server
	shardURLs []string
	router    *cluster.Router
	routerURL string
	client    *http.Client // the benchmark clients' own connection pool

	tracer atomic.Pointer[tracer]
	nextOp atomic.Uint64

	// peerFills and peerFillNanos count every PeerFillFunc call (demand
	// fills and replica prefills alike), traced or not.
	peerFills     atomic.Uint64
	peerFillNanos atomic.Int64
}

// bootFleet starts the shards and the router, each on its own loopback
// listener. cfg is applied to every shard; the peer-fill hook is added
// here.
func bootFleet(cfg service.Config) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	peerClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	fill := cluster.NewPeerFill(peerClient, cfg.MaxTableCells)
	cfg.PeerFill = f.wrapPeerFill(fill)
	for i := 0; i < numShards; i++ {
		svc := service.New(cfg)
		url, srv, err := serve(f.shardHandler(svc.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		f.servers = append(f.servers, srv)
		f.shardURLs = append(f.shardURLs, url)
	}
	// The background health loop is off: no shard fails during a run,
	// and its probes would only add timer noise to the measurement.
	f.router = cluster.NewRouter(cluster.RouterConfig{
		Backends:       f.shardURLs,
		Replication:    replication,
		PeerFill:       true,
		HealthInterval: -1,
		Client:         &http.Client{Transport: &opTransport{f: f, base: &http.Transport{MaxIdleConnsPerHost: 64}}},
	})
	url, srv, err := serve(f.routerHandler(f.router.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, srv)
	f.routerURL = url
	return f, nil
}

func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// close stops the router (waiting out replica fills), then the servers,
// then the services, so nothing the fleet started outlives it.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		srv.Shutdown(ctx)
	}
	for _, svc := range f.svcs {
		svc.Close()
	}
	f.client.CloseIdleConnections()
}

// settle waits until no replica fill is in flight.
func (f *fleet) settle() { f.router.WaitReplicaFills() }

// opRef is what the router wrapper hangs on the request context: the
// client op being served and the router span, so the router's client
// transport can attribute its upstream call. It survives coalescing's
// context.WithoutCancel, which keeps values.
type opRef struct {
	op, span uint64
}

type opRefKey struct{}

func (f *fleet) routerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := f.tracer.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		op, parent := headerIDs(r)
		sp := t.begin("cluster.handler", routeClass(r.URL.Path), op, parent)
		ctx := context.WithValue(r.Context(), opRefKey{}, opRef{op: op, span: sp.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(sp)
	})
}

func (f *fleet) shardHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := f.tracer.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		op, parent := headerIDs(r)
		sp := t.begin("service.handler", routeClass(r.URL.Path), op, parent)
		ctx := obs.WithStages(r.Context(), t.stageSink(op, sp.ID))
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(sp)
	})
}

// headerIDs reads and strips the op and parent span ids.
func headerIDs(r *http.Request) (op, parent uint64) {
	op, _ = strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	parent, _ = strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
	r.Header.Del(opHeader)
	r.Header.Del(parentHeader)
	return op, parent
}

// routeClass names the endpoint a span served, for grouping.
func routeClass(path string) string {
	switch {
	case path == "/schedule":
		return "schedule"
	case path == "/session":
		return "session.create"
	case path == "/table/prefill":
		return "prefill"
	case strings.HasPrefix(path, "/table/"):
		return "table"
	case strings.HasPrefix(path, "/session/"):
		if strings.HasSuffix(path, "/delta") {
			return "delta"
		}
		if strings.HasSuffix(path, "/schedule") {
			return "session.schedule"
		}
		return "session"
	}
	return "other"
}

// opTransport is the router's upstream client transport. In a traced
// phase it times each upstream exchange up to the close of the response
// body (the router reads bodies whole) and stamps the op and span ids
// for the shard wrapper. Calls without an op on the context — replica
// prefills — are recorded as background spans.
type opTransport struct {
	f    *fleet
	base http.RoundTripper
}

func (o *opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := o.f.tracer.Load()
	if t == nil {
		return o.base.RoundTrip(req)
	}
	ref, _ := req.Context().Value(opRefKey{}).(opRef)
	name := "cluster.upstream"
	if ref.op == 0 {
		name = "cluster.replica_fill"
	}
	sp := t.begin(name, routeClass(req.URL.Path), ref.op, ref.span)
	req = req.Clone(req.Context())
	if ref.op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(ref.op, 10))
		req.Header.Set(parentHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := o.base.RoundTrip(req)
	if err != nil {
		t.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   *span
	done atomic.Bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done.CompareAndSwap(false, true) {
		b.t.end(b.sp)
	}
	return err
}

func (f *fleet) wrapPeerFill(fill service.PeerFillFunc) service.PeerFillFunc {
	return func(ctx context.Context, fp trace.Fingerprint, peer string) (cost.ResidenceTable, error) {
		start := time.Now()
		var sp *span
		t := f.tracer.Load()
		if t != nil {
			sp = t.begin("cluster.peerfill", "table", 0, 0)
		}
		table, err := fill(ctx, fp, peer)
		if sp != nil {
			t.end(sp)
		}
		f.peerFills.Add(1)
		f.peerFillNanos.Add(int64(time.Since(start)))
		return table, err
	}
}

// errShed marks an op that was still shed (429/503) after its retries.
var errShed = errors.New("shed past retry")

// maxShedRetries bounds how often one call is retried after a shed
// response before the op counts as failed.
const maxShedRetries = 5

// call POSTs one request through the router and returns the body of a
// response with the wanted status, retrying shed responses (429/503) a
// bounded number of times. In a traced phase it carries the op id and
// the client span for the router wrapper.
func (f *fleet) call(op, parent uint64, path string, body []byte, want int) ([]byte, error) {
	for sheds := 0; ; sheds++ {
		if sheds > maxShedRetries {
			return nil, errShed
		}
		if sheds > 0 {
			time.Sleep(time.Duration(5*sheds) * time.Millisecond)
		}
		req, err := http.NewRequest(http.MethodPost, f.routerURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if op != 0 {
			req.Header.Set(opHeader, strconv.FormatUint(op, 10))
			req.Header.Set(parentHeader, strconv.FormatUint(parent, 10))
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case want:
			return data, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// fleetCounters is the summed /stats view of the shards plus the
// router's counters, taken in-process.
type fleetCounters struct {
	shard  service.Stats // the counters perLayer reads, summed over shards
	router cluster.RouterStats
	fills  uint64
	fillNs int64
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, svc := range f.svcs {
		s := svc.Stats()
		c.shard.RejectedOverload += s.RejectedOverload
		c.shard.TablesBuilt += s.TablesBuilt
		c.shard.CacheHits += s.CacheHits
		c.shard.CacheMisses += s.CacheMisses
		c.shard.CacheEvictions += s.CacheEvictions
		c.shard.CacheDemotions += s.CacheDemotions
		c.shard.CachePromotions += s.CachePromotions
		c.shard.CacheAdmitRejects += s.CacheAdmitRejects
		c.shard.CacheBytes += s.CacheBytes
		c.shard.TablesPrefilled += s.TablesPrefilled
	}
	c.router = f.router.Stats()
	c.fills = f.peerFills.Load()
	c.fillNs = f.peerFillNanos.Load()
	return c
}
