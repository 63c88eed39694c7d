package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
)

// The admission tests pin the one path every entry point passes: the
// fence Close waits on, the session open that builds outside the
// service lock, the payload check at the table header, and the error
// contract (errorStatus). scripts/check.sh runs them as the "service
// admission" gate.

// Close waits for session work: a session schedule that passed the
// fence and is parked before its operation lock keeps Close from
// returning until it finishes, and once Close began every session
// operation is refused.
func TestCloseWaitsForSessionOp(t *testing.T) {
	svc, id, _ := newSessionForRace(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookSessionOp = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })

	opErr := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleSession(id)
		opErr <- err
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a session schedule was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-opErr; err != nil {
		t.Fatalf("in-flight session schedule: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the session op finished")
	}
	if _, err := svc.SessionInfo(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("session info after Close: %v, want ErrClosed", err)
	}
}

// A session build holds no service-wide lock: while a create is parked
// in its build, a memo-hit Schedule and Stats still answer, and the
// build's reserved slot still counts against MaxSessions, so a second
// create is shed before it builds anything.
func TestSessionBuildDoesNotBlockService(t *testing.T) {
	svc := New(Config{MaxSessions: 1})
	defer svc.Close()
	text := traceText(t, "lu", 4, grid.Square(2))
	req := Request{Trace: text, Algorithm: "gomcds"}
	if _, err := svc.Schedule(context.Background(), req); err != nil {
		t.Fatal(err) // warms the table cache and the schedule memo
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookSessionOpen = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })

	createErr := make(chan error, 1)
	go func() {
		_, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
		createErr <- err
	}()
	<-entered

	answered := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), req)
		svc.Stats()
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("memo-hit schedule during a session build: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("memo-hit Schedule and Stats blocked behind a session build")
	}

	built := svc.Stats().TablesBuilt
	_, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("create over MaxSessions during a build: %v, want ErrOverloaded", err)
	}
	if got := svc.Stats().TablesBuilt; got != built {
		t.Fatalf("a shed create built a table: tables_built %d -> %d", built, got)
	}

	releaseOnce.Do(func() { close(release) })
	if err := <-createErr; err != nil {
		t.Fatalf("held create: %v", err)
	}
	if n := svc.sessionCount(); n != 1 {
		t.Fatalf("sessions live = %d after the held create finished, want 1", n)
	}
}

// Racing opens: creates past MaxSessions build nothing and are shed,
// and racing imports of one id leave exactly one session under it, the
// rest answering 409.
func TestRacingSessionOpensRespectLimit(t *testing.T) {
	const limit, racers = 4, 12
	svc := New(Config{MaxSessions: limit})
	defer svc.Close()
	text := traceText(t, "lu", 4, grid.Square(2))
	src, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.ExportSession(src.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteSession(src.SessionID); err != nil {
		t.Fatal(err)
	}
	built := svc.Stats().TablesBuilt

	var wg sync.WaitGroup
	createErrs := make(chan error, racers)
	importErrs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
			createErrs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := svc.ImportSession(*exp)
			importErrs <- err
		}()
	}
	wg.Wait()
	close(createErrs)
	close(importErrs)

	created, imported := 0, 0
	for err := range createErrs {
		switch {
		case err == nil:
			created++
		case !errors.Is(err, ErrOverloaded):
			t.Errorf("racing create: %v", err)
		}
	}
	var exists *ErrSessionExists
	for err := range importErrs {
		switch {
		case err == nil:
			imported++
		case !errors.As(err, &exists) && !errors.Is(err, ErrOverloaded):
			t.Errorf("racing import: %v", err)
		}
	}
	if imported > 1 {
		t.Fatalf("%d racing imports of one id succeeded, want at most 1", imported)
	}
	if created+imported > limit || svc.sessionCount() != created+imported {
		t.Fatalf("%d creates + %d imports live as %d sessions, limit %d", created, imported, svc.sessionCount(), limit)
	}
	if got := svc.Stats().TablesBuilt - built; got != uint64(created) {
		t.Fatalf("racing creates built %d tables for %d sessions", got, created)
	}
}

// A shipped table for the wrong fingerprint is refused at its header:
// the import allocates nothing near the table the payload declares. The
// bound is taken over an import refused for a truncated header, which
// pays the same trace admission and allocates no table either way.
func TestImportWrongFingerprintRefusedBeforeAllocating(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	tr, _, text := contractTraces(t)
	fp := tr.Fingerprint()
	wrong := fp
	wrong[0] ^= 0xff
	const cells = 1 << 20 // 8 MiB once decoded
	payload := cost.EncodeTable(wrong, cost.NewResidenceTable(cells/4, 1, 4))

	importAlloc := func(table []byte) uint64 {
		exp := SessionExport{SessionID: "s-wrong-fp", Algorithm: "gomcds", Fingerprint: fp.String(), Trace: text, Table: table}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := svc.ImportSession(exp)
		runtime.ReadMemStats(&after)
		if !isRequestError(err) {
			t.Fatalf("import of a bad table payload: %v, want a RequestError (400)", err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	baseline := importAlloc(payload[:8])
	if extra := int64(importAlloc(payload)) - int64(baseline); extra >= 64<<10 {
		t.Fatalf("refusing a wrong-fingerprint %d-cell payload allocated %d bytes more than a truncated one, want < 64 KiB", cells, extra)
	}
}

// An import refused for its id decodes neither its trace nor its table:
// both decodes run only after the open step reserved a session slot. At
// lu 32 on 8x8 the two decodes would allocate about 21 MB.
func TestDuplicateImportRefusedBeforeDecoding(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	info, err := svc.CreateSession(CreateSessionRequest{Trace: traceText(t, "lu", 32, grid.Square(8)), Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.ExportSession(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = svc.ImportSession(*exp)
	runtime.ReadMemStats(&after)
	var exists *ErrSessionExists
	if !errors.As(err, &exists) {
		t.Fatalf("duplicate-id import: %v, want ErrSessionExists (409)", err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 1<<20 {
		t.Fatalf("refusing a duplicate-id import allocated %d bytes, want < 1 MiB", got)
	}
	t.Logf("refusing a duplicate-id import allocated %d bytes", got)
}

// A prefill for a table the shard already holds answers 204 from the
// cache lookup: the request names the table by fingerprint and shape,
// so no trace is decoded and nothing is fetched.
func TestResidentPrefillDecodesNothing(t *testing.T) {
	svc := New(Config{PeerFill: func(context.Context, trace.Fingerprint, string) (cost.ResidenceTable, error) {
		return cost.ResidenceTable{}, errors.New("a resident table is never fetched")
	}})
	defer svc.Close()
	text := traceText(t, "lu", 32, grid.Square(8))
	if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(prefillOf(t, text))
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/table/prefill", bytes.NewReader(body))
	req.Header.Set(PeerHintHeader, "http://peer.invalid")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("prefill of a resident table: status %d, want 204 (%s)", rec.Code, rec.Body.Bytes())
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 64<<10 {
		t.Fatalf("prefill of a resident table allocated %d bytes, want < 64 KiB", got)
	}
	t.Logf("prefill of a resident table allocated %d bytes", got)
	if st := svc.Stats(); st.TablesPrefilled != 0 {
		t.Fatalf("tables_prefilled = %d after a no-op prefill, want 0", st.TablesPrefilled)
	}
}

// A prefill body is exactly a PrefillRequest: a trace-carrying body (the
// old form) is refused, and so is a shape that could not name a table,
// before anything is fetched.
func TestPrefillRefusesBadBodies(t *testing.T) {
	svc := New(Config{PeerFill: func(context.Context, trace.Fingerprint, string) (cost.ResidenceTable, error) {
		t.Error("a refused prefill fetched")
		return cost.ResidenceTable{}, errors.New("unreachable")
	}})
	defer svc.Close()
	text := traceText(t, "lu", 4, grid.Square(2))
	good := prefillOf(t, text)
	for name, body := range map[string]any{
		"trace body":       map[string]string{"trace": text},
		"bad fingerprint":  PrefillRequest{Fingerprint: "zz", Width: 2, Height: 2, NumData: 1, NumWindows: 1},
		"zero width":       PrefillRequest{Fingerprint: good.Fingerprint, Width: 0, Height: 2, NumData: 1, NumWindows: 1},
		"negative height":  PrefillRequest{Fingerprint: good.Fingerprint, Width: 2, Height: -1, NumData: 1, NumWindows: 1},
		"negative windows": PrefillRequest{Fingerprint: good.Fingerprint, Width: 2, Height: 2, NumData: 1, NumWindows: -1},
		"over cell budget": PrefillRequest{Fingerprint: good.Fingerprint, Width: 1 << 20, Height: 1 << 20, NumData: 1 << 20, NumWindows: 1 << 20},
	} {
		r := newReq(t, http.MethodPost, "/table/prefill", body)
		r.Header.Set(PeerHintHeader, "http://peer.invalid")
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.Bytes())
		}
	}
}

// readSpy is a request body that records whether anything read it.
type readSpy struct {
	r    io.Reader
	read bool
}

func (s *readSpy) Read(p []byte) (int, error) {
	s.read = true
	return s.r.Read(p)
}

// prefillOf names text's table in a prefill request, as the router
// does from the summary it routed the trace by.
func prefillOf(t testing.TB, text string) PrefillRequest {
	t.Helper()
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return PrefillFor(tr.Fingerprint(), tr.Shape())
}

// A shard without a peer-fill hook answers a prefill 501 before it
// reads the body: decoding a request it must refuse anyway is waste.
func TestPrefillWithoutPeerFill501BeforeBody(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	body, err := json.Marshal(prefillOf(t, traceText(t, "lu", 4, grid.Square(2))))
	if err != nil {
		t.Fatal(err)
	}
	spy := &readSpy{r: bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, "/table/prefill", spy)
	req.Header.Set(PeerHintHeader, "http://peer.invalid")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("prefill without peer fill: status %d, want 501 (%s)", rec.Code, rec.Body.Bytes())
	}
	if spy.read {
		t.Fatal("prefill without peer fill read the request body before answering 501")
	}
}

// contractCase is one row of the error contract driven through the HTTP
// handlers: prepare returns the service and the request to send.
type contractCase struct {
	name       string
	prepare    func(t *testing.T) (*Service, *http.Request)
	status     int
	retryAfter bool
	msg        string
}

// newReq builds a JSON request for the in-process handler.
func newReq(t *testing.T, method, path string, body any) *http.Request {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	return httptest.NewRequest(method, path, rd)
}

// holdWorker parks one /schedule in svc's worker until the test ends,
// so the next request finds no free concurrency slot.
func holdWorker(t *testing.T, svc *Service, text string) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	req := newReq(t, http.MethodPost, "/schedule", Request{Trace: text, Algorithm: "scds"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered
	t.Cleanup(func() {
		close(release)
		<-done
	})
}

// contractTraces returns two tiny traces of one shape whose
// fingerprints differ, and the first one's pimtrace text.
func contractTraces(t *testing.T) (a, b *trace.Trace, textA string) {
	t.Helper()
	mk := func(vol int) *trace.Trace {
		tr := trace.New(grid.New(2, 2), 2)
		w := tr.AddWindow()
		w.AddVolume(0, 0, vol)
		w.AddVolume(3, 1, 1)
		tr.AddWindow().AddVolume(2, 0, 2)
		return tr
	}
	a, b = mk(3), mk(4)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	return a, b, buf.String()
}

// TestErrorContract drives every row of errorStatus through the HTTP
// handlers: the status, the Retry-After header on both shedding paths
// (and only there) and the error message.
func TestErrorContract(t *testing.T) {
	text := traceText(t, "lu", 4, grid.Square(2))
	newSvc := func(t *testing.T, cfg Config) *Service {
		svc := New(cfg)
		t.Cleanup(func() { svc.Close() })
		return svc
	}
	prefillReq := func(t *testing.T) *http.Request {
		r := newReq(t, http.MethodPost, "/table/prefill", prefillOf(t, text))
		r.Header.Set(PeerHintHeader, "http://peer.invalid")
		return r
	}
	cases := []contractCase{
		{
			name: "400 unknown algorithm",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/schedule", Request{Trace: text, Algorithm: "quantum"})
			},
			status: http.StatusBadRequest,
			msg:    `service: bad request: sched: unknown scheduler "quantum" (want scds, lomcds or gomcds)`,
		},
		{
			name: "400 batch spec",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/schedule/batch", BatchRequest{Trace: text, Requests: []BatchSpec{{Algorithm: "scds"}, {Algorithm: "scds", Capacity: -2}}})
			},
			status: http.StatusBadRequest,
			msg:    "service: bad request: spec 1: negative capacity -2",
		},
		{
			name: "400 session negative capacity",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/session", CreateSessionRequest{Trace: text, Algorithm: "gomcds", Capacity: -1})
			},
			status: http.StatusBadRequest,
			msg:    "service: bad request: negative capacity -1",
		},
		{
			name: "404 unknown session",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/session/nope/schedule", nil)
			},
			status: http.StatusNotFound,
			msg:    "service: no session nope",
		},
		{
			name: "409 duplicate import",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{})
				info, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
				if err != nil {
					t.Fatal(err)
				}
				exp, err := svc.ExportSession(info.SessionID)
				if err != nil {
					t.Fatal(err)
				}
				return svc, newReq(t, http.MethodPost, "/session/import", exp)
			},
			status: http.StatusConflict,
			msg:    "service: session already exists: ",
		},
		{
			// The id is refused before the payload is decoded, so a
			// duplicate carrying a bad table is a 409, not a 400.
			name: "409 duplicate import with a bad table",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{})
				info, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
				if err != nil {
					t.Fatal(err)
				}
				exp, err := svc.ExportSession(info.SessionID)
				if err != nil {
					t.Fatal(err)
				}
				exp.Table = exp.Table[:8]
				return svc, newReq(t, http.MethodPost, "/session/import", exp)
			},
			status: http.StatusConflict,
			msg:    "service: session already exists: ",
		},
		{
			name: "412 table not resident",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/schedule", Request{Fingerprint: fingerprintOf(t, text).String(), Algorithm: "scds"})
			},
			status: http.StatusPreconditionFailed,
			msg:    "service: table not resident",
		},
		{
			name: "429 schedule shed",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{MaxInflight: 1})
				holdWorker(t, svc, text)
				return svc, newReq(t, http.MethodPost, "/schedule", Request{Trace: text, Algorithm: "scds"})
			},
			status:     http.StatusTooManyRequests,
			retryAfter: true,
			msg:        "service: overloaded",
		},
		{
			name: "429 session limit",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{MaxSessions: 1})
				if _, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"}); err != nil {
					t.Fatal(err)
				}
				return svc, newReq(t, http.MethodPost, "/session", CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
			},
			status:     http.StatusTooManyRequests,
			retryAfter: true,
			msg:        "service: overloaded: 1 sessions live",
		},
		{
			name: "501 no peer fill",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{}), prefillReq(t)
			},
			status: http.StatusNotImplemented,
			msg:    "service: peer fill not configured",
		},
		{
			name: "502 prefill fetch failed",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{PeerFill: func(context.Context, trace.Fingerprint, string) (cost.ResidenceTable, error) {
					return cost.ResidenceTable{}, errors.New("peer down")
				}}), prefillReq(t)
			},
			status: http.StatusBadGateway,
			msg:    "service: prefill from http://peer.invalid: peer down",
		},
		{
			name: "502 prefill fetch timed out",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{PeerFillTimeout: time.Millisecond, PeerFill: func(ctx context.Context, _ trace.Fingerprint, _ string) (cost.ResidenceTable, error) {
					<-ctx.Done()
					return cost.ResidenceTable{}, ctx.Err()
				}}), prefillReq(t)
			},
			status: http.StatusBadGateway,
			msg:    "service: prefill from http://peer.invalid: context deadline exceeded",
		},
		{
			name: "503 closed schedule",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{})
				svc.Close()
				return svc, newReq(t, http.MethodPost, "/schedule", Request{Trace: text, Algorithm: "scds"})
			},
			status: http.StatusServiceUnavailable,
			msg:    "service: shutting down",
		},
		{
			name: "503 closed session",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				svc := newSvc(t, Config{})
				svc.Close()
				return svc, newReq(t, http.MethodPost, "/session", CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
			},
			status: http.StatusServiceUnavailable,
			msg:    "service: shutting down",
		},
		{
			name: "504 deadline",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				return newSvc(t, Config{Timeout: time.Nanosecond}), newReq(t, http.MethodPost, "/schedule", Request{Trace: text, Algorithm: "gomcds"})
			},
			status: http.StatusGatewayTimeout,
			msg:    "context deadline exceeded",
		},
		{
			name: "500 restored fingerprint mismatch",
			prepare: func(t *testing.T) (*Service, *http.Request) {
				a, b, textA := contractTraces(t)
				fpB := b.Fingerprint()
				exp := SessionExport{
					SessionID:   "s-mismatch",
					Algorithm:   "gomcds",
					Fingerprint: fpB.String(),
					Trace:       textA,
					Table:       cost.EncodeTable(fpB, cost.NewModel(a).BuildResidenceTable()),
				}
				return newSvc(t, Config{}), newReq(t, http.MethodPost, "/session/import", exp)
			},
			status: http.StatusInternalServerError,
			msg:    "service: restored session fingerprint ",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, req := tc.prepare(t)
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body.Bytes())
			}
			if ra := rec.Header().Get("Retry-After"); (ra != "") != tc.retryAfter {
				t.Fatalf("Retry-After %q, want present=%v", ra, tc.retryAfter)
			} else if tc.retryAfter && ra != "1" {
				t.Fatalf("Retry-After %q with no service-time history, want the 1 s floor", ra)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("error body %q: %v", rec.Body.Bytes(), err)
			}
			if !strings.HasPrefix(body.Error, tc.msg) && !strings.HasSuffix(body.Error, tc.msg) {
				t.Fatalf("error %q, want %q", body.Error, tc.msg)
			}
		})
	}
}
