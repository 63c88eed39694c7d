package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/trace"
)

// roundTripFunc is a fake router client transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	return f(r)
}

func fakeResponse(status int, body string) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// refused is the transport error of a backend that is not listening.
func refused(*http.Request) (*http.Response, error) {
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
}

// TestRouterErrorContract drives every status the router generates
// itself through Handler and pins the status, the error message and the
// Retry-After header (present only on the 503s that shed for want of an
// owner, and then the health interval's whole seconds plus one).
func TestRouterErrorContract(t *testing.T) {
	text := clusterTrace(t, 0)
	schedule, err := json.Marshal(service.Request{Trace: text, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	dead := []string{"http://dead-a.invalid", "http://dead-b.invalid"}
	ring := NewRing(0)
	for _, b := range dead {
		ring.Add(b)
	}
	owner, _ := ring.Owner(fp[:])
	retry, _ := ring.OwnerExcluding(fp[:], owner)

	created := func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodPost && r.URL.Path == "/session" {
			return fakeResponse(http.StatusCreated, `{"session_id":"s-1"}`), nil
		}
		return refused(r)
	}
	cases := []struct {
		name       string
		cfg        RouterConfig
		transport  roundTripFunc
		setup      string // "METHOD path" sent first, with the schedule body
		method     string
		path       string
		body       string
		status     int
		retryAfter string
		msg        string
	}{
		{
			name:   "400 body without a trace",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}},
			method: http.MethodPost, path: "/schedule", body: `{"algorithm":"scds"}`,
			status: http.StatusBadRequest,
			msg:    "cluster: unroutable body: no trace field",
		},
		{
			name:   "400 trace that does not decode",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}},
			method: http.MethodPost, path: "/session", body: `{"trace":"junk"}`,
			status: http.StatusBadRequest,
			msg:    `cluster: unroutable body: trace: line 1: bad header "junk", want "pimtrace v1"`,
		},
		{
			name:   "413 body over the limit",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}, MaxBodyBytes: 16},
			method: http.MethodPost, path: "/schedule/batch", body: string(schedule),
			status: http.StatusRequestEntityTooLarge,
			msg:    "cluster: read request: http: request body too large",
		},
		{
			name:   "404 unknown session",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}},
			method: http.MethodGet, path: "/session/nope",
			status: http.StatusNotFound,
			msg:    "cluster: unknown session nope",
		},
		{
			name:   "503 empty ring",
			cfg:    RouterConfig{},
			method: http.MethodPost, path: "/schedule", body: string(schedule),
			status: http.StatusServiceUnavailable, retryAfter: "1",
			msg: "cluster: no healthy backends",
		},
		{
			name:   "503 empty ring, default health interval",
			cfg:    RouterConfig{HealthInterval: DefaultHealthInterval},
			method: http.MethodPost, path: "/schedule", body: string(schedule),
			status: http.StatusServiceUnavailable, retryAfter: "3",
			msg: "cluster: no healthy backends",
		},
		{
			name:      "503 owner and retry unreachable",
			cfg:       RouterConfig{Backends: dead},
			transport: refused,
			method:    http.MethodPost, path: "/schedule", body: string(schedule),
			status: http.StatusServiceUnavailable, retryAfter: "1",
			msg: `cluster: backend unreachable: Post "` + retry + `/schedule": dial tcp: connection refused`,
		},
		{
			name:      "503 session backend unreachable",
			cfg:       RouterConfig{Backends: []string{"http://a.invalid"}},
			transport: created,
			setup:     "POST /session",
			method:    http.MethodGet, path: "/session/s-1",
			status: http.StatusServiceUnavailable,
			msg:    `cluster: session backend unreachable: Get "http://a.invalid/session/s-1": dial tcp: connection refused`,
		},
		{
			name: "502 proxy failure other than the connection",
			cfg:  RouterConfig{Backends: []string{"http://a.invalid"}},
			transport: func(*http.Request) (*http.Response, error) {
				return nil, errors.New("malformed response")
			},
			method: http.MethodPost, path: "/schedule", body: string(schedule),
			status: http.StatusBadGateway,
			msg:    `cluster: proxy: Post "http://a.invalid/schedule": malformed response`,
		},
		{
			name:   "400 admin call without a backend",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}},
			method: http.MethodPost, path: "/admin/drain",
			status: http.StatusBadRequest,
			msg:    "cluster: missing ?backend= parameter",
		},
		{
			name:   "404 admin call for an unknown backend",
			cfg:    RouterConfig{Backends: []string{"http://a.invalid"}},
			method: http.MethodPost, path: "/admin/undrain?backend=http://nope.invalid/",
			status: http.StatusNotFound,
			msg:    "cluster: unknown backend http://nope.invalid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.HealthInterval == 0 {
				cfg.HealthInterval = -1 // no health loop probing the fakes
			}
			transport := tc.transport
			if transport == nil {
				transport = func(r *http.Request) (*http.Response, error) {
					t.Errorf("request %s %s reached a backend", r.Method, r.URL)
					return refused(r)
				}
			}
			cfg.Client = &http.Client{Transport: transport}
			rt := NewRouter(cfg)
			defer rt.Close()
			h := rt.Handler()
			if method, path, ok := strings.Cut(tc.setup, " "); ok {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(schedule)))
				if rec.Code/100 != 2 {
					t.Fatalf("setup %s: status %d (%s)", tc.setup, rec.Code, rec.Body.Bytes())
				}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body.Bytes())
			}
			if ra := rec.Header().Get("Retry-After"); ra != tc.retryAfter {
				t.Fatalf("Retry-After %q, want %q", ra, tc.retryAfter)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("error body %q: %v", rec.Body.Bytes(), err)
			}
			if body.Error != tc.msg {
				t.Fatalf("error %q, want %q", body.Error, tc.msg)
			}
		})
	}
}

// The fill ledger is bounded: every distinct key settles a fill per
// replica, and at maxSettledFills the settled entries are cleared. A
// forgotten fill costs exactly one prefill when its key comes back, and
// is settled again after it. Every prefill names its table by
// fingerprint and shape, never by trace text.
func TestRouterFillLedgerBounded(t *testing.T) {
	var mu sync.Mutex
	prefills := make(map[string]int) // fingerprint -> prefills received
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/table/prefill" {
			return fakeResponse(http.StatusOK, "{}"), nil
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req service.PrefillRequest
		if err := dec.Decode(&req); err != nil || req.Width <= 0 || req.Height <= 0 {
			t.Errorf("prefill body %+v: %v", req, err)
		}
		mu.Lock()
		prefills[req.Fingerprint]++
		mu.Unlock()
		return fakeResponse(http.StatusNoContent, ""), nil
	})
	rt := NewRouter(RouterConfig{
		Backends:       []string{"http://a.invalid", "http://b.invalid"},
		PeerFill:       true,
		HealthInterval: -1,
		Client:         &http.Client{Transport: transport},
	})
	defer rt.Close()
	h := rt.Handler()
	// One distinct one-ref trace per key.
	texts := make([]string, maxSettledFills+1)
	for i := range texts {
		texts[i] = "pimtrace v1\ngrid 1 1\ndata 1\nwindow\nref 0 0 " + strconv.Itoa(i+1) + "\n"
	}
	send := func(i int) {
		body, err := json.Marshal(service.Request{Trace: texts[i], Algorithm: "scds"})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("key %d: status %d (%s)", i, rec.Code, rec.Body.Bytes())
		}
		rt.WaitReplicaFills()
	}
	for i := range texts {
		send(i)
	}
	rt.fillMu.Lock()
	entries, settled := len(rt.fills), rt.settled
	rt.fillMu.Unlock()
	if entries > maxSettledFills || settled > maxSettledFills {
		t.Fatalf("after %d distinct keys the ledger holds %d entries (%d settled), want at most %d",
			len(texts), entries, settled, maxSettledFills)
	}

	tr, err := trace.Decode(strings.NewReader(texts[0]))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint().String()
	mu.Lock()
	before := prefills[fp]
	mu.Unlock()
	send(0)
	send(0)
	mu.Lock()
	defer mu.Unlock()
	if got := prefills[fp] - before; got != 1 {
		t.Fatalf("a forgotten key re-sent %d prefills over two requests, want 1", got)
	}
}
