package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/service"
	"repro/internal/trace"
)

// evilTableServer serves, for every GET /table/{fp} request, a
// well-formed pimtab payload whose fingerprint matches the URL but
// whose declared shape is 100x100x10 = 100k cells — modest on the wire,
// but over any tight cell budget.
func evilTableServer(t *testing.T) *httptest.Server {
	t.Helper()
	return tableServer(t, func(fp trace.Fingerprint) []byte {
		return cost.EncodeTable(fp, cost.NewResidenceTable(100, 100, 10))
	})
}

// TestPeerFillRejectsOversizedTablePayload is the GET /table/{fp} adopt
// half of the DoS-guard fix: the peer-fill client used to decode any
// payload under the codec's 1 GiB hard ceiling, so a compromised or
// buggy peer could commit the adopting shard to an allocation its own
// MaxTableCells guard would refuse. With the budget threaded through,
// the decode must fail at the cell limit — before allocating.
func TestPeerFillRejectsOversizedTablePayload(t *testing.T) {
	ts := evilTableServer(t)
	tr, err := trace.Decode(bytes.NewReader([]byte(clusterTrace(t, 2))))
	if err != nil {
		t.Fatal(err)
	}
	fill := NewPeerFill(nil, 4096)
	_, err = fill(context.Background(), tr.Fingerprint(), ts.URL)
	if err == nil {
		t.Fatal("peer fill adopted a table payload over the cell budget")
	}
	if !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("error %q does not name the cell limit — the payload was rejected for the wrong reason", err)
	}

	// Unlimited (<= 0) keeps only the codec's hard ceiling, so the same
	// payload decodes — which is exactly the pre-fix behaviour the
	// budget exists to close off.
	if _, err := NewPeerFill(nil, 0)(context.Background(), tr.Fingerprint(), ts.URL); err != nil {
		t.Fatalf("unbudgeted peer fill rejected an in-ceiling payload: %v", err)
	}
}

// TestScheduleFallsBackOnOversizedPeerTable drives the same guard end
// to end through a schedule with a peer hint: the oversized payload is
// refused, the shard falls back to a local build, and the request still
// succeeds.
func TestScheduleFallsBackOnOversizedPeerTable(t *testing.T) {
	ts := evilTableServer(t)
	svc := service.New(service.Config{
		MaxTableCells: 4096,
		PeerFill:      NewPeerFill(nil, 4096),
	})
	defer svc.Close()
	resp, err := svc.Schedule(context.Background(), service.Request{
		Trace: clusterTrace(t, 2), Algorithm: "scds", PeerHint: ts.URL,
	})
	if err != nil {
		t.Fatalf("schedule with oversized peer table: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("response claims a cache hit; the poisoned fill must have been a local build")
	}
	st := svc.Stats()
	if st.TablesBuilt != 1 || st.PeerFillFallback != 1 || st.PeerFills != 0 {
		t.Fatalf("stats after poisoned fill: built=%d fallbacks=%d fills=%d, want 1/1/0",
			st.TablesBuilt, st.PeerFillFallback, st.PeerFills)
	}
}

// TestPrefillRejectsOversizedPeerTable covers the POST /table/prefill
// half: a replica push whose source serves an oversized table must be
// refused at the cell limit and adopt nothing.
func TestPrefillRejectsOversizedPeerTable(t *testing.T) {
	ts := evilTableServer(t)
	svc := service.New(service.Config{
		MaxTableCells: 4096,
		PeerFill:      NewPeerFill(nil, 4096),
	})
	defer svc.Close()
	tr, err := trace.Decode(strings.NewReader(clusterTrace(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	req := service.PrefillFor(tr.Fingerprint(), tr.Shape())
	req.PeerHint = ts.URL
	err = svc.Prefill(context.Background(), req)
	if err == nil {
		t.Fatal("prefill adopted a table payload over the cell budget")
	}
	if !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("error %q does not name the cell limit", err)
	}
	if st := svc.Stats(); st.TablesPrefilled != 0 {
		t.Fatalf("tables_prefilled = %d after a rejected prefill, want 0", st.TablesPrefilled)
	}
}

// tableServer answers every GET /table/{fp} with payload(fp).
func tableServer(t *testing.T, payload func(trace.Fingerprint) []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/")
		fp, err := trace.ParseFingerprint(parts[len(parts)-1])
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(payload(fp))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPeerFillBodyCapFollowsCellBudget: the peer-fill body cap is
// derived from the cell budget, so a table at the budget in the
// codec's worst density (every cell a 10-byte varint) is adopted, and a
// body one byte longer is refused by the cap before it is decoded.
func TestPeerFillBodyCapFollowsCellBudget(t *testing.T) {
	// Cells alternate MinInt64 and 0 in flat order; with an odd
	// processor count the row heads alternate too, so every delta the
	// codec stores is ±MinInt64, a 10-byte varint.
	worst := cost.NewResidenceTable(2, 3, 5)
	for i := range worst.Cells() {
		if i%2 == 0 {
			worst.Cells()[i] = math.MinInt64
		}
	}
	cells := int64(len(worst.Cells()))
	var junk []byte
	ts := tableServer(t, func(fp trace.Fingerprint) []byte {
		return append(cost.EncodeTable(fp, worst), junk...)
	})
	var fp trace.Fingerprint
	fp[0] = 7
	fill := NewPeerFill(nil, cells)
	if n := int64(len(cost.EncodeTable(fp, worst))); n != cost.MaxTableBytes(cells) {
		t.Fatalf("payload is %d bytes; the table is not at worst density", n)
	}

	table, err := fill(context.Background(), fp, ts.URL)
	if err != nil {
		t.Fatalf("worst-density table at the cell budget refused: %v", err)
	}
	if !slices.Equal(table.Cells(), worst.Cells()) {
		t.Fatal("adopted table differs from the served one")
	}

	junk = []byte{0}
	_, err = fill(context.Background(), fp, ts.URL)
	if err == nil {
		t.Fatal("body one byte over the cap was adopted")
	}
	if !strings.Contains(err.Error(), "table body over") {
		t.Fatalf("error %q: the body reached the decoder instead of being capped", err)
	}
}

// pimtabV1 lays a table out in the retired pimtab-v1 format: the same
// header under a v1 magic, then fixed-width little-endian cells.
func pimtabV1(fp trace.Fingerprint, table cost.ResidenceTable) []byte {
	out := append([]byte("pimtab-v1\n"), fp[:]...)
	for _, dim := range []int{table.NumWindows(), table.NumData(), table.NumProcs()} {
		out = binary.LittleEndian.AppendUint64(out, uint64(dim))
	}
	for _, c := range table.Cells() {
		out = binary.LittleEndian.AppendUint64(out, uint64(c))
	}
	return out
}

// TestPimtabV1Refused: pimtab-v2 is the only table codec, so a payload
// in the retired v1 format is refused with the wrong-magic error by
// both table-accepting paths — session import and peer fill — rather
// than being decoded as garbage.
func TestPimtabV1Refused(t *testing.T) {
	text := clusterTrace(t, 3)
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	v1 := pimtabV1(fp, cost.NewModel(tr).BuildResidenceTable())

	src := service.New(service.Config{})
	defer src.Close()
	info, err := src.CreateSession(service.CreateSessionRequest{Trace: text, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := src.ExportSession(info.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(exp.Table, []byte("pimtab-v2\n")) {
		t.Fatalf("export table payload leads with %q, want pimtab-v2", exp.Table[:10])
	}
	dst := service.New(service.Config{})
	defer dst.Close()
	exp.Table = v1
	if _, err := dst.ImportSession(*exp); err == nil || !strings.Contains(err.Error(), "wrong magic") {
		t.Fatalf("import of a pimtab-v1 table: %v, want a wrong-magic error", err)
	}

	ts := tableServer(t, func(trace.Fingerprint) []byte { return v1 })
	if _, err := NewPeerFill(nil, 0)(context.Background(), fp, ts.URL); err == nil || !strings.Contains(err.Error(), "wrong magic") {
		t.Fatalf("peer fill of a pimtab-v1 table: %v, want a wrong-magic error", err)
	}
}
