package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

func postRaw(t testing.TB, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := readAllAndClose(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouterRefusedBodiesNeverAliased: through the router, every
// refused body is refused on every repeat and never enters the alias of
// the hop that refused it. The router refuses what it cannot route —
// malformed JSON, trailing data, a trace that does not decode — and
// aliases neither its body nor its text. Bodies it can route but the
// shard refuses — an unknown field, an infeasible capacity, a trace
// over MaxTableCells — may enter the router's alias (it only maps them
// to their owner), but never the shard's: no shard ever reports a body
// hit for them. A body whose spec is infeasible decodes cleanly, so the
// shard aliases it and memoizes its refusal. None of these bodies is
// ever sent in fingerprint form, which the router keeps for bodies a
// shard has answered with a 2xx: each repeat carries its trace and gets
// the same 400.
func TestRouterRefusedBodiesNeverAliased(t *testing.T) {
	backends := []*backend{
		newBackend(t, service.Config{MaxTableCells: 1024}),
		newBackend(t, service.Config{MaxTableCells: 1024}),
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})
	valid, err := json.Marshal(service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	// lu n=4 on 2x2: 16 items cannot fit one slot on each of 4 processors.
	infeasible, err := json.Marshal(service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	var big bytes.Buffer
	if err := trace.Encode(&big, gen.Generate(8, grid.Square(4))); err != nil {
		t.Fatal(err)
	}
	overBudget, err := json.Marshal(service.Request{Trace: big.String(), Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 3
	refusedAlike := func(name string, body []byte) {
		t.Helper()
		var first []byte
		for i := 0; i < repeats; i++ {
			status, data := postRaw(t, ts.Client(), ts.URL+"/schedule", body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s, repeat %d: status %d (%s), want 400", name, i, status, data)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Fatalf("%s, repeat %d: refused with\n%s\nthe first send with\n%s", name, i, data, first)
			}
		}
	}
	for _, c := range []struct {
		name           string
		body           []byte
		routerRefuses  bool
		routerAliasAdd int // entries the router's alias gains: body and text key
	}{
		{"malformed JSON", valid[:len(valid)/2], true, 0},
		{"trailing data", append(append([]byte(nil), valid...), []byte(`{}`)...), true, 0},
		{"malformed trace", []byte(`{"trace":"not a trace","algorithm":"scds"}`), true, 0},
		{"unknown field", append(bytes.TrimSuffix(append([]byte(nil), valid...), []byte("}")), []byte(`,"bogus":1}`)...), false, 2},
		{"over budget", overBudget, false, 2},
	} {
		aliased, bad := rt.alias.Len(), rt.Stats().BadRequests
		refusedAlike(c.name, c.body)
		if got := rt.alias.Len() - aliased; got != c.routerAliasAdd {
			t.Fatalf("%s: router alias gained %d entries, want %d", c.name, got, c.routerAliasAdd)
		}
		wantBad := uint64(0)
		if c.routerRefuses {
			wantBad = repeats
		}
		if got := rt.Stats().BadRequests - bad; got != wantBad {
			t.Fatalf("%s: router refused %d requests, want %d", c.name, got, wantBad)
		}
	}
	for i, b := range backends {
		if st := b.svc.Stats(); st.TraceAliasBodyHits != 0 || st.TraceAliasHits != 0 {
			t.Fatalf("shard %d: alias hits %d, body hits %d after refused bodies; want 0 and 0", i, st.TraceAliasHits, st.TraceAliasBodyHits)
		}
	}
	refusedAlike("infeasible capacity", infeasible)
	var shardByFingerprint uint64
	for _, b := range backends {
		shardByFingerprint += b.svc.Stats().ByFingerprint
	}
	if st := rt.Stats(); st.FingerprintForwards != 0 || shardByFingerprint != 0 {
		t.Fatalf("refused bodies: router fingerprint forwards %d, shard fingerprint-form requests %d; want 0 and 0",
			st.FingerprintForwards, shardByFingerprint)
	}

	// A valid body is aliased at both hops, and once a shard has answered
	// it the router sends its repeat in fingerprint form: a body hit at
	// the router, a fingerprint-form request at the shard.
	for i := 0; i < 2; i++ {
		if status, data := postRaw(t, ts.Client(), ts.URL+"/schedule", valid); status != http.StatusOK {
			t.Fatalf("control body, send %d: status %d (%s)", i, status, data)
		}
	}
	var shardBodyHits uint64
	shardByFingerprint = 0
	for _, b := range backends {
		st := b.svc.Stats()
		shardBodyHits += st.TraceAliasBodyHits
		shardByFingerprint += st.ByFingerprint
	}
	// The unknown-field body carries the control's trace text, so the
	// control's first send was a text hit at the router. The shard's
	// body hits are the infeasible body's repeats.
	if st := rt.Stats(); st.AliasBodyHits != 3*(repeats-1)+1 || st.FingerprintForwards != 1 || shardBodyHits != repeats-1 || shardByFingerprint != 1 {
		t.Fatalf("control body: router body hits %d, fingerprint forwards %d, shard body hits %d, shard fingerprint-form requests %d; want %d, 1, %d and 1",
			st.AliasBodyHits, st.FingerprintForwards, shardBodyHits, shardByFingerprint, 3*(repeats-1)+1, repeats-1)
	}
}

// TestRouterPrefillOnBodyHit: a replica fill triggered by a request the
// router answered from its body alias — no JSON decode at routing time —
// still names the right table: the prefill carries the fingerprint and
// shape the alias resolved, and the replica adopts the table.
func TestRouterPrefillOnBodyHit(t *testing.T) {
	h := newClusterHarness(t, 3, -1) // replication defaults to 2
	text := clusterTrace(t, 5)
	body, err := json.Marshal(service.Request{Trace: text, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	owners := h.router.Ring().Owners(fp[:], 2)
	if len(owners) != 2 {
		t.Fatalf("ring owners %v, want a primary and a replica", owners)
	}
	var replica *restartableBackend
	for _, b := range h.backends {
		if b.url() == owners[1] {
			replica = b
		}
	}

	if status, data := postRaw(t, h.client, h.ts.URL+"/schedule", body); status != http.StatusOK {
		t.Fatalf("first send: status %d: %s", status, data)
	}
	h.router.WaitReplicaFills()
	if st := h.router.Stats(); st.ReplicaFills != 1 || st.ReplicaFillErrors != 0 {
		t.Fatalf("first send: replica fills %d, errors %d; want 1 and 0", st.ReplicaFills, st.ReplicaFillErrors)
	}

	// The replica crashes and comes back empty; its fills are forgotten.
	replica.kill()
	h.router.eject(replica.url())
	replica.restart(t)
	for i := 0; i < DefaultReadmitAfter; i++ {
		h.router.CheckHealth()
	}
	if !h.router.Ring().Has(replica.url()) {
		t.Fatal("restarted replica was not readmitted")
	}

	before := h.router.Stats()
	if status, data := postRaw(t, h.client, h.ts.URL+"/schedule", body); status != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", status, data)
	}
	h.router.WaitReplicaFills()
	after := h.router.Stats()
	if after.AliasBodyHits != before.AliasBodyHits+1 || after.AliasMisses != before.AliasMisses {
		t.Fatalf("repeat: router body hits %d -> %d, misses %d -> %d; want a body hit",
			before.AliasBodyHits, after.AliasBodyHits, before.AliasMisses, after.AliasMisses)
	}
	if after.ReplicaFills != 2 || after.ReplicaFillErrors != 0 {
		t.Fatalf("repeat: replica fills %d, errors %d; want 2 and 0", after.ReplicaFills, after.ReplicaFillErrors)
	}
	if st := replica.stats()[0]; st.TablesPrefilled != 1 || st.TablesBuilt != 0 {
		t.Fatalf("restarted replica: tables_prefilled %d, tables_built %d; want the table adopted, not built", st.TablesPrefilled, st.TablesBuilt)
	}
}

// readAllSized reads exactly what arrives whatever the declared length
// says, and a truthful declared length costs one allocation: the
// buffer io.ReadAll would grow by doubling is sized up front. A declared
// length is trusted with at most maxPresize bytes: a client declaring a
// near-limit body and sending a few bytes does not get the router to
// allocate the limit.
func TestReadAllSized(t *testing.T) {
	data := bytes.Repeat([]byte("pim"), 40_000)
	big := bytes.Repeat([]byte("pim"), maxPresize) // 3 MiB, over the presize cap
	for _, c := range []struct {
		data     []byte
		declared int64
	}{
		{data, int64(len(data))}, {data, -1}, {data, 10}, {data, int64(len(data)) * 2}, {data, 1 << 40},
		{big, int64(len(big))}, {big, -1},
	} {
		got, err := readAllSized(nil, bytes.NewReader(c.data), c.declared)
		if err != nil || !bytes.Equal(got, c.data) {
			t.Fatalf("declared %d: read %d bytes, err %v; want all %d", c.declared, len(got), err, len(c.data))
		}
	}

	// The allocator rounds a large buffer up to whole pages.
	const slack = 16 << 10
	got, err := readAllSized(nil, strings.NewReader("pim"), DefaultRouterMaxBody-1)
	if err != nil || string(got) != "pim" {
		t.Fatalf("short body: read %q, err %v", got, err)
	}
	if cap(got) > maxPresize+slack {
		t.Fatalf("a body declaring %d bytes and sending 3 allocated %d, want at most %d",
			DefaultRouterMaxBody-1, cap(got), maxPresize+slack)
	}

	r := bytes.NewReader(data)
	if n := testing.AllocsPerRun(20, func() {
		r.Reset(data)
		readAllSized(nil, r, int64(len(data)))
	}); n != 1 {
		t.Fatalf("a truthful Content-Length costs %v allocations, want 1", n)
	}
}

// A forwarded body's buffer goes back to the pool only once the handler
// and every upstream reader have let go, whatever the order; a reader
// the transport closes twice lets go once.
func TestSharedBodyReleasedByLastHolder(t *testing.T) {
	data := []byte("pim body")
	sb := &sharedBody{b: bytes.Clone(data)}
	sb.refs.Store(1) // the handler's
	first, second := sb.open(), sb.open()
	sb.release()
	first.Close()
	first.Close()
	if !bytes.Equal(sb.b, data) {
		t.Fatal("the buffer was recycled while a reader still held it")
	}
	if got, err := io.ReadAll(second); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the open reader read %q, %v; want %q", got, err, data)
	}
	second.Close()
	if len(sb.b) != 0 || sb.refs.Load() != 0 {
		t.Fatalf("after the last release: %d bytes, %d refs; want the buffer reset for the pool", len(sb.b), sb.refs.Load())
	}
}

// lateTransport answers every request at once and hands the request to
// read, which owns its body from then on.
type lateTransport func(*http.Request)

func (read lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	read(r)
	return fakeResponse(http.StatusOK, "{}"), nil
}

// A pooled request body outlives RoundTrip: the transport may still be
// writing it after the response arrives. Clients race bodies of several
// sizes through the router while a transport reads none of them until
// every request has been answered; each body it then reads must be one
// a client sent, or the fingerprint form of one (the transport answers
// 200, so every repeat goes by name), which fails if the router
// recycled a buffer its transport still held, full body or named copy.
func TestRouterBodyOutlivesRoundTrip(t *testing.T) {
	bodies := make([][]byte, 6)
	sent := make(map[string]bool)
	for i := range bodies {
		text := clusterTrace(t, 3*i)
		b, err := json.Marshal(service.Request{Trace: text, Algorithm: "scds"})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], sent[string(b)] = b, true
		sent[string(service.FingerprintBody(tr.Fingerprint(), "scds", 0))] = true
	}
	release := make(chan struct{})
	var readers sync.WaitGroup
	rt := NewRouter(RouterConfig{
		Backends:       []string{"http://a.invalid"},
		HealthInterval: -1,
		Client: &http.Client{Transport: lateTransport(func(r *http.Request) {
			readers.Add(1)
			go func() {
				defer readers.Done()
				defer r.Body.Close()
				<-release
				if b, err := io.ReadAll(r.Body); err != nil || !sent[string(b)] {
					t.Errorf("the transport read %d bytes no client sent (%v)", len(b), err)
				}
			}()
		})},
	})
	defer rt.Close()
	h := rt.Handler()
	var clients sync.WaitGroup
	for g := range 8 {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := range 10 {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(bodies[(g+i)%len(bodies)])))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d request %d: status %d (%s)", g, i, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	clients.Wait()
	close(release)
	readers.Wait()
	if st := rt.Stats(); st.FingerprintForwards == 0 {
		t.Fatal("no repeat went in fingerprint form: the named copy's lifetime went unexercised")
	}
}
