package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/service"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Replication, drain migration, and shared-schedule referees: the acceptance
// harness for replicated ownership. Everything here runs with the
// health loop disabled so ring transitions happen only where the test
// makes them happen.
// ---------------------------------------------------------------------

// TestClusterReplicatedFailoverNoRebuild is acceptance (a): with R=2,
// every table the fleet builds is pushed to the key's replica before
// the primary can die; killing one of three shards then serves every
// subsequent schedule from replicas with zero new table builds and
// zero non-retried errors.
func TestClusterReplicatedFailoverNoRebuild(t *testing.T) {
	const numTraces = 8
	h := newClusterHarness(t, 3, -1) // replication defaults to 2
	refs := buildReferences(t, numTraces, clusterTrace)

	drive := func(phase string) {
		for i := 0; i < numTraces; i++ {
			for _, spec := range harnessSpecs {
				body, _ := json.Marshal(service.Request{
					Trace: clusterTrace(t, i), Algorithm: spec.algo, Capacity: spec.cap,
				})
				status, data, err := retryingPost(h.client, h.ts.URL+"/schedule", body)
				if err != nil || status != http.StatusOK {
					t.Fatalf("%s: trace %d %s: status %d err %v: %.300s", phase, i, spec.algo, status, err, data)
				}
				var resp service.Response
				if err := json.Unmarshal(data, &resp); err != nil {
					t.Fatal(err)
				}
				if err := checkAgainstRef(refs, refKey{i, spec.algo, spec.cap}, resp.Fingerprint, resp.Centers, resp.Cost); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
			}
		}
	}

	drive("warm")
	h.router.WaitReplicaFills()
	st := h.router.Stats()
	if st.ReplicaFillErrors != 0 {
		t.Fatalf("replica fill errors on a healthy fleet: %+v", st)
	}
	// Every distinct trace must have exactly one pushed copy (R=2: one
	// replica beyond the serving primary).
	if st.ReplicaFills != numTraces {
		t.Fatalf("replica_fills = %d, want %d (one replica per distinct trace)", st.ReplicaFills, numTraces)
	}
	built := h.fleetBuilt()
	if built != numTraces {
		t.Fatalf("fleet tables_built = %d before kill, want %d", built, numTraces)
	}
	var prefilled uint64
	for _, b := range h.backends {
		for _, s := range b.stats() {
			prefilled += s.TablesPrefilled
		}
	}
	if prefilled != numTraces {
		t.Fatalf("fleet tables_prefilled = %d, want %d", prefilled, numTraces)
	}

	// Kill one shard. The first request per key it owned sees a
	// connection error, which the router turns into an ejection plus an
	// in-request retry on the key's next owner — the replica that
	// already adopted the table. No request fails, nothing rebuilds.
	// Ring placement follows the backends' ephemeral ports, so a fixed
	// index can own no key at all; kill the shard that served the most
	// warm-phase requests, which owns at least one.
	victim := 0
	var victimRequests uint64
	for i, b := range h.backends {
		var served uint64
		for _, s := range b.stats() {
			served += s.Requests
		}
		if served > victimRequests {
			victim, victimRequests = i, served
		}
	}
	h.backends[victim].kill()
	drive("failover")
	h.router.WaitReplicaFills()

	if got := h.fleetBuilt(); got != built {
		var detail string
		for i, b := range h.backends {
			for j, s := range b.stats() {
				detail += fmt.Sprintf("\nbackend %d incarnation %d: built=%d prefilled=%d peer_fills=%d fallbacks=%d requests=%d misses=%d",
					i, j, s.TablesBuilt, s.TablesPrefilled, s.PeerFills, s.PeerFillFallback, s.Requests, s.CacheMisses)
			}
		}
		t.Fatalf("fleet tables_built grew %d -> %d across a single-shard kill with R=2 — failover rebuilt instead of transferring%s\nrouter: %+v",
			built, got, detail, h.router.Stats())
	}
	st = h.router.Stats()
	if st.Ejections != 1 {
		t.Fatalf("ejections = %d, want exactly 1", st.Ejections)
	}
	if st.NoBackend != 0 {
		t.Fatalf("no_backend = %d, want 0 — some request found no owner", st.NoBackend)
	}
}

// TestClusterDrainMigratesSessionsBitIdentical is acceptance (b): a
// drained shard's sessions continue on their new owner, and every
// post-drain fingerprint, sequence number, and schedule is
// bit-identical to an uninterrupted serial replay on a single node.
func TestClusterDrainMigratesSessionsBitIdentical(t *testing.T) {
	const numSessions = 6
	h := newClusterHarness(t, 3, -1)

	// The serial referee: the same create/delta/schedule sequence
	// against one local service, never migrated.
	ref := service.New(service.Config{})
	defer ref.Close()

	type sessionPair struct {
		traceIdx int
		routerID string
		refID    string
	}
	var sessions []sessionPair
	for i := 0; i < numSessions; i++ {
		req := service.CreateSessionRequest{Trace: clusterTrace(t, i), Algorithm: "gomcds"}
		status, body := postJSON(t, h.client, h.ts.URL+"/session", req)
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var info service.SessionInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		refInfo, err := ref.CreateSession(req)
		if err != nil {
			t.Fatal(err)
		}
		if info.Fingerprint != refInfo.Fingerprint {
			t.Fatalf("session %d: creation fingerprint %s, serial %s", i, info.Fingerprint, refInfo.Fingerprint)
		}
		sessions = append(sessions, sessionPair{i, info.SessionID, refInfo.SessionID})
	}

	// One deterministic delta+schedule round against both sides,
	// asserting the routed responses match the serial replay bit for
	// bit (fingerprint chain, seq, centers, cost — everything except
	// the session IDs, which are per-side).
	round := func(phase string, seq int) {
		for _, sp := range sessions {
			dd := delta.Delta{Op: delta.OpAppendWindow, Refs: []delta.Ref{
				{Proc: 0, Data: trace.DataID(sp.traceIdx % 3), Volume: 5 + seq},
				{Proc: 1, Data: trace.DataID((sp.traceIdx + 1) % 3), Volume: 2 + sp.traceIdx},
			}}
			status, body := postJSON(t, h.client, h.ts.URL+"/session/"+sp.routerID+"/delta", dd)
			if status != http.StatusOK {
				t.Fatalf("%s: delta on %s: status %d: %s", phase, sp.routerID, status, body)
			}
			var got service.DeltaResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			want, err := ref.ApplySessionDelta(sp.refID, dd)
			if err != nil {
				t.Fatalf("%s: serial delta: %v", phase, err)
			}
			if got.Seq != want.Seq || got.Fingerprint != want.Fingerprint || got.NumWindows != want.NumWindows {
				t.Fatalf("%s: delta response diverged: routed %+v, serial %+v", phase, got, want)
			}

			status, body = postJSON(t, h.client, h.ts.URL+"/session/"+sp.routerID+"/schedule", struct{}{})
			if status != http.StatusOK {
				t.Fatalf("%s: schedule on %s: status %d: %s", phase, sp.routerID, status, body)
			}
			var gotSched service.SessionScheduleResponse
			if err := json.Unmarshal(body, &gotSched); err != nil {
				t.Fatal(err)
			}
			wantSched, err := ref.ScheduleSession(sp.refID)
			if err != nil {
				t.Fatalf("%s: serial schedule: %v", phase, err)
			}
			if gotSched.Fingerprint != wantSched.Fingerprint || gotSched.Seq != wantSched.Seq ||
				gotSched.Cost != wantSched.Cost || !jsonEqualCenters(gotSched.Centers, wantSched.Centers) {
				t.Fatalf("%s: schedule diverged on %s:\nrouted fp=%s seq=%d cost=%+v\nserial fp=%s seq=%d cost=%+v",
					phase, sp.routerID, gotSched.Fingerprint, gotSched.Seq, gotSched.Cost,
					wantSched.Fingerprint, wantSched.Seq, wantSched.Cost)
			}
		}
	}

	round("pre-drain", 0)

	// Pick a victim that actually holds sessions (creation pins spread
	// by trace fingerprint, so at least one of three shards must).
	victim := -1
	for i, b := range h.backends {
		for _, st := range b.stats() {
			if st.SessionsActive > 0 {
				victim = i
			}
		}
	}
	if victim < 0 {
		t.Fatal("no backend holds a session")
	}
	var migrating int
	for _, st := range h.backends[victim].stats() {
		migrating += st.SessionsActive
	}

	resp, err := h.client.Post(h.ts.URL+"/admin/drain?backend="+h.backends[victim].url(), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllAndClose(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s", resp.StatusCode, body)
	}
	var drainResp struct {
		Backend  string `json:"backend"`
		Migrated int    `json:"migrated"`
		Failed   int    `json:"failed"`
	}
	if err := json.Unmarshal(body, &drainResp); err != nil {
		t.Fatal(err)
	}
	if drainResp.Failed != 0 || drainResp.Migrated != migrating {
		t.Fatalf("drain migrated %d, failed %d; want %d migrated, 0 failed", drainResp.Migrated, drainResp.Failed, migrating)
	}
	for _, st := range h.backends[victim].stats() {
		if st.SessionsActive != 0 {
			t.Fatalf("drained backend still holds %d sessions", st.SessionsActive)
		}
	}
	if h.router.Ring().Has(h.backends[victim].url()) {
		t.Fatal("drained backend still in the ring")
	}
	if st := h.router.Stats(); st.SessionsMigrated != uint64(migrating) || st.SessionsPinned != numSessions {
		t.Fatalf("router stats after drain: %+v (want %d migrated, %d still pinned)", st, migrating, numSessions)
	}

	// Post-drain rounds: the migrated sessions must continue exactly
	// where they stopped — same fingerprint chain, same schedules.
	round("post-drain", 1)
	round("post-drain-2", 2)

	// Sessions are transferred, never rebuilt: one table per created
	// session fleet-wide, imports included.
	if built := h.fleetBuilt(); built != numSessions {
		t.Fatalf("fleet tables_built = %d, want %d (imports must not rebuild)", built, numSessions)
	}
}

// TestDrainFailedMigrationKeepsSession: when the destination refuses
// the import (here it is at MaxSessions and answers 429), the session
// is still live on the drained source, so the router keeps its pin
// there. The session must go on answering through the router, its next
// delta and schedule bit-identical to a serial replay, instead of
// turning into a 404 for a session that still exists.
func TestDrainFailedMigrationKeepsSession(t *testing.T) {
	backends := []*backend{
		newBackend(t, service.Config{MaxSessions: 1}),
		newBackend(t, service.Config{MaxSessions: 1}),
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})
	ref := service.New(service.Config{})
	defer ref.Close()

	req := service.CreateSessionRequest{Trace: clusterTrace(t, 3), Algorithm: "gomcds"}
	status, body := postJSON(t, ts.Client(), ts.URL+"/session", req)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var info service.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	refInfo, err := ref.CreateSession(req)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the other backend's only session slot directly, so the
	// drain's import there is refused.
	src, dst := backends[0], backends[1]
	if src.svc.Stats().SessionsActive != 1 {
		src, dst = dst, src
	}
	if status, body := postJSON(t, ts.Client(), dst.ts.URL+"/session", service.CreateSessionRequest{
		Trace: clusterTrace(t, 4), Algorithm: "scds",
	}); status != http.StatusCreated {
		t.Fatalf("filler session: status %d: %s", status, body)
	}

	resp, err := ts.Client().Post(ts.URL+"/admin/drain?backend="+src.ts.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAllAndClose(resp)
	var drained struct {
		Migrated int `json:"migrated"`
		Failed   int `json:"failed"`
	}
	if err := json.Unmarshal(body, &drained); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s (%v)", resp.StatusCode, body, err)
	}
	if drained.Migrated != 0 || drained.Failed != 1 {
		t.Fatalf("drain migrated %d, failed %d; want 0 migrated, 1 failed (import refused)", drained.Migrated, drained.Failed)
	}
	if src.svc.Stats().SessionsActive != 1 {
		t.Fatal("the failed migration removed the session from its source")
	}

	for seq := 0; seq < 2; seq++ {
		dd := delta.Delta{Op: delta.OpAppendWindow, Refs: []delta.Ref{
			{Proc: 0, Data: 1, Volume: 5 + seq},
			{Proc: 1, Data: 2, Volume: 3},
		}}
		status, body := postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/delta", dd)
		if status != http.StatusOK {
			t.Fatalf("delta %d after the failed drain: status %d: %s", seq, status, body)
		}
		var got service.DeltaResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := ref.ApplySessionDelta(refInfo.SessionID, dd)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || got.Fingerprint != want.Fingerprint || got.NumWindows != want.NumWindows {
			t.Fatalf("delta %d diverged: routed %+v, serial %+v", seq, got, want)
		}

		status, body = postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/schedule", struct{}{})
		if status != http.StatusOK {
			t.Fatalf("schedule %d after the failed drain: status %d: %s", seq, status, body)
		}
		var gotSched service.SessionScheduleResponse
		if err := json.Unmarshal(body, &gotSched); err != nil {
			t.Fatal(err)
		}
		wantSched, err := ref.ScheduleSession(refInfo.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		if gotSched.Fingerprint != wantSched.Fingerprint || gotSched.Seq != wantSched.Seq ||
			gotSched.Cost != wantSched.Cost || !jsonEqualCenters(gotSched.Centers, wantSched.Centers) {
			t.Fatalf("schedule %d diverged: routed fp=%s seq=%d cost=%+v, serial fp=%s seq=%d cost=%+v",
				seq, gotSched.Fingerprint, gotSched.Seq, gotSched.Cost, wantSched.Fingerprint, wantSched.Seq, wantSched.Cost)
		}
	}
	if st := rt.Stats(); st.SessionsPinned != 1 {
		t.Fatalf("sessions pinned after a failed migration = %d, want 1", st.SessionsPinned)
	}

	// Once the drained source really goes away, the kept pin must not
	// turn into a permanent 503: the first failed proxy drops it, and
	// the session is then a clean 404.
	src.ts.Close()
	if status, body := postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/schedule", struct{}{}); status != http.StatusServiceUnavailable {
		t.Fatalf("schedule on the stopped source: status %d: %s, want 503", status, body)
	}
	if status, body := postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/schedule", struct{}{}); status != http.StatusNotFound {
		t.Fatalf("schedule after the source's pin was dropped: status %d: %s, want 404", status, body)
	}
	if st := rt.Stats(); st.SessionsPinned != 0 {
		t.Fatalf("sessions pinned after the drained source died = %d, want 0", st.SessionsPinned)
	}
}

// jsonEqualCenters compares two center matrices by value.
func jsonEqualCenters(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRouterIdenticalSinglesShareOneMemoFill is acceptance (c) now
// that the router no longer coalesces: N concurrent identical single
// /schedule requests each reach their shard, every caller receives the
// same body (up to the per-request elapsed_us and cache_hit fields),
// and the fleet runs the scheduler exactly once — the owning shard's
// schedule memo collapses the rest, whether they overlapped or not. At
// the router the alias counts one outcome per request; at the shard a
// request is one alias outcome, or one fingerprint-form request when
// the router sent it by name. How many of the racing callers found the
// body already aliased (or answered) depends on timing, but a
// sequential repeat afterwards is exactly one body hit at the router and
// one fingerprint-form request at the shard, which touches no alias.
func TestRouterIdenticalSinglesShareOneMemoFill(t *testing.T) {
	const callers = 8
	backends := []*backend{
		newBackend(t, service.Config{}),
		newBackend(t, service.Config{}),
		newBackend(t, service.Config{}),
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	body, _ := json.Marshal(service.Request{Trace: clusterTrace(t, 12), Algorithm: "gomcds"})
	results := make(chan []byte, callers)
	errs := make(chan error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			data, err := readAllAndClose(resp)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			results <- data
		}()
	}
	close(start)
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var want []byte
	for data := range results {
		got := withoutRequestFields(t, data)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("callers received different schedules:\n%s\nvs\n%s", got, want)
		}
	}

	type fleetAlias struct{ built, memoHits, memoMisses, hits, misses, bodyHits, byFingerprint uint64 }
	fleet := func() (f fleetAlias) {
		for _, b := range backends {
			st := b.svc.Stats()
			f.built += st.TablesBuilt
			f.memoHits += st.MemoHits
			f.memoMisses += st.MemoMisses
			f.hits += st.TraceAliasHits
			f.misses += st.TraceAliasMisses
			f.bodyHits += st.TraceAliasBodyHits
			f.byFingerprint += st.ByFingerprint
		}
		return f
	}
	f := fleet()
	if f.built != 1 || f.memoMisses != 1 || f.memoHits != callers-1 {
		t.Fatalf("fleet tables_built = %d, memo misses = %d, memo hits = %d; want 1, 1, %d",
			f.built, f.memoMisses, f.memoHits, callers-1)
	}
	if f.hits+f.misses+f.byFingerprint != callers || f.misses < 1 || f.bodyHits > f.hits {
		t.Fatalf("fleet alias hits %d (%d body) + misses %d + fingerprint-form requests %d, want %d with at least one miss and body hits within hits",
			f.hits, f.bodyHits, f.misses, f.byFingerprint, callers)
	}
	st := rt.Stats()
	if st.Requests != callers {
		t.Fatalf("router requests = %d, want %d upstream sends", st.Requests, callers)
	}
	if st.AliasHits+st.AliasMisses != callers || st.AliasMisses < 1 || st.AliasBodyHits > st.AliasHits {
		t.Fatalf("router alias hits %d (%d body) + misses %d, want %d with at least one miss and body hits within hits",
			st.AliasHits, st.AliasBodyHits, st.AliasMisses, callers)
	}

	if status, data := postRaw(t, ts.Client(), ts.URL+"/schedule", body); status != http.StatusOK ||
		!bytes.Equal(withoutRequestFields(t, data), want) {
		t.Fatalf("sequential repeat: status %d, body\n%s\nwant\n%s", status, data, want)
	}
	g, st2 := fleet(), rt.Stats()
	if g.hits != f.hits || g.misses != f.misses || g.byFingerprint != f.byFingerprint+1 || g.memoHits != f.memoHits+1 {
		t.Fatalf("sequential repeat: fleet alias hits %d->%d, misses %d->%d, fingerprint-form requests %d->%d, memo hits %d->%d; want one fingerprint-form memo hit",
			f.hits, g.hits, f.misses, g.misses, f.byFingerprint, g.byFingerprint, f.memoHits, g.memoHits)
	}
	if st2.AliasHits != st.AliasHits+1 || st2.AliasBodyHits != st.AliasBodyHits+1 || st2.AliasMisses != st.AliasMisses {
		t.Fatalf("sequential repeat: router alias hits %d->%d, body hits %d->%d, misses %d->%d; want one body hit",
			st.AliasHits, st2.AliasHits, st.AliasBodyHits, st2.AliasBodyHits, st.AliasMisses, st2.AliasMisses)
	}
	if st2.FingerprintForwards != st.FingerprintForwards+1 || st2.FingerprintResends != st.FingerprintResends {
		t.Fatalf("sequential repeat: router fingerprint forwards %d->%d, resends %d->%d; want one forward and no resend",
			st.FingerprintForwards, st2.FingerprintForwards, st.FingerprintResends, st2.FingerprintResends)
	}
}

// withoutRequestFields re-encodes a /schedule response without the
// fields that legitimately differ between identical requests.
func withoutRequestFields(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_us")
	delete(m, "cache_hit")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPeerFillStallFallsBackWithinDeadline pins the peer-fill deadline
// path: a peer that answers GET /table/{fp} with valid pimtab-v2 header
// bytes and then stalls mid-body must cost the builder at most
// PeerFillTimeout before it falls back to a local build — and the hung
// connection must not outlive the stall.
func TestPeerFillStallFallsBackWithinDeadline(t *testing.T) {
	traceText := clusterTrace(t, 2)
	tr, err := trace.Decode(bytes.NewReader([]byte(traceText)))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	payload := cost.EncodeTable(fp, cost.NewModel(tr).BuildResidenceTable())

	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseStall := func() { releaseOnce.Do(func() { close(release) }) }
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Valid header and a slice of real body bytes, then silence:
		// the worst kind of sick peer, alive enough to defeat a
		// connect-level check.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		w.WriteHeader(http.StatusOK)
		w.Write(payload[:40])
		w.(http.Flusher).Flush()
		<-release
	}))
	defer stall.Close()
	defer releaseStall()

	baseline := runtime.NumGoroutine()
	svc := service.New(service.Config{
		PeerFill:        NewPeerFill(nil, 0),
		PeerFillTimeout: 150 * time.Millisecond,
	})
	defer svc.Close()

	start := time.Now()
	resp, err := svc.Schedule(context.Background(), service.Request{
		Trace: traceText, Algorithm: "scds", PeerHint: stall.URL,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("schedule with stalling peer: %v", err)
	}
	if resp.Fingerprint != fp.String() {
		t.Fatalf("fingerprint %s, want %s", resp.Fingerprint, fp.String())
	}
	// Build budget: exactly one local build, one counted fallback, no
	// adopted table.
	st := svc.Stats()
	if st.TablesBuilt != 1 || st.PeerFillFallback != 1 || st.PeerFills != 0 {
		t.Fatalf("stats after stalled fill: built=%d fallbacks=%d fills=%d, want 1/1/0",
			st.TablesBuilt, st.PeerFillFallback, st.PeerFills)
	}
	// The stall must cost about one PeerFillTimeout, not a client or
	// request deadline: generous 10x bound to stay unflaky under -race.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("fallback took %v, budget is ~PeerFillTimeout (150ms)", elapsed)
	}

	// The aborted fetch must tear down its connection: once the handler
	// unblocks, the process returns to its goroutine baseline (the
	// transport holds no goroutine pinned on the dead read).
	releaseStall()
	stall.CloseClientConnections()
	waitFor(t, "goroutines back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}
