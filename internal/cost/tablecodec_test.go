package cost

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/workload"
)

func builtTable(t *testing.T) (trace.Fingerprint, ResidenceTable) {
	t.Helper()
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(6, grid.Square(3))
	m := NewModel(tr)
	return tr.Fingerprint(), m.BuildResidenceTable()
}

func int64Bytes(cells []int64) []byte {
	out := make([]byte, 0, 8*len(cells))
	for _, c := range cells {
		out = binary.LittleEndian.AppendUint64(out, uint64(c))
	}
	return out
}

func sameTable(a, b ResidenceTable) bool {
	return a.NumWindows() == b.NumWindows() && a.NumData() == b.NumData() &&
		a.NumProcs() == b.NumProcs() &&
		bytes.Equal(int64Bytes(a.Cells()), int64Bytes(b.Cells()))
}

// flatTableLen is the size the table would take as fixed-width int64
// cells behind the same header: the baseline the codec's compression
// ratio is measured against.
func flatTableLen(t ResidenceTable) int {
	return tableCodecHeaderLen + 8*len(t.Cells())
}

func TestTableCodecV2RoundTrip(t *testing.T) {
	shapes := []struct {
		kind string
		n    int
		side int
	}{
		{"lu", 6, 3}, {"matsquare", 8, 4}, {"stencil", 10, 2}, {"code", 5, 3},
	}
	for _, sh := range shapes {
		gen, err := workload.ByName(sh.kind)
		if err != nil {
			t.Fatal(err)
		}
		tr := gen.Generate(sh.n, grid.Square(sh.side))
		fp := tr.Fingerprint()
		table := NewModel(tr).BuildResidenceTable()
		payload := EncodeTable(fp, table)
		got, err := DecodeTable(payload, fp, 0)
		if err != nil {
			t.Fatalf("%s/%d: %v", sh.kind, sh.n, err)
		}
		if !sameTable(got, table) {
			t.Fatalf("%s/%d: decoded table differs from original", sh.kind, sh.n)
		}
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	fp, table := builtTable(t)
	got, err := DecodeTable(EncodeTable(fp, table), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWindows() != table.NumWindows() || got.NumData() != table.NumData() || got.NumProcs() != table.NumProcs() {
		t.Fatalf("shape %dx%dx%d, want %dx%dx%d",
			got.NumWindows(), got.NumData(), got.NumProcs(),
			table.NumWindows(), table.NumData(), table.NumProcs())
	}
	if !sameTable(got, table) {
		t.Fatal("decoded cells differ from original")
	}
	// The decoded table owns fresh backing: mutating it must not alias
	// the payload or the original.
	got.Cells()[0]++
	if got.Cells()[0] == table.Cells()[0] {
		t.Fatal("decoded table aliases the original")
	}
}

// TestTableCodecRoundTripEmpty: a trace with no windows has a 0-cell
// table; its shape still round-trips.
func TestTableCodecRoundTripEmpty(t *testing.T) {
	var fp trace.Fingerprint
	fp[0] = 0xab
	got, err := DecodeTable(EncodeTable(fp, NewResidenceTable(0, 3, 9)), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWindows() != 0 || got.NumData() != 3 || got.NumProcs() != 9 {
		t.Fatalf("empty table round-trip: shape %dx%dx%d", got.NumWindows(), got.NumData(), got.NumProcs())
	}
}

func TestTableCodecV2RoundTripExtremeCells(t *testing.T) {
	var fp trace.Fingerprint
	fp[3] = 0x7c
	table := NewResidenceTable(2, 3, 4)
	cells := table.Cells()
	cells[0] = math.MinInt64
	cells[1] = math.MaxInt64
	cells[2] = -1
	cells[len(cells)-1] = math.MaxInt64
	cells[len(cells)-2] = math.MinInt64
	got, err := DecodeTable(EncodeTable(fp, table), fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(got, table) {
		t.Fatal("extreme cell values did not survive the round trip")
	}
}

// TestDecodeTableAnyCellLimit pins the uniform DoS guard: a payload
// whose declared shape exceeds the caller's budget is rejected before
// any cell allocation.
func TestDecodeTableAnyCellLimit(t *testing.T) {
	fp, table := builtTable(t)
	cells := int64(table.NumWindows()) * int64(table.NumData()) * int64(table.NumProcs())
	payload := EncodeTable(fp, table)
	if _, err := DecodeTable(payload, fp, cells); err != nil {
		t.Fatalf("rejected a table exactly at the budget: %v", err)
	}
	_, err := DecodeTable(payload, fp, cells-1)
	if err == nil || !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("budget %d did not reject a %d-cell table: %v", cells-1, cells, err)
	}
}

func TestTableCodecV2RejectsCorruption(t *testing.T) {
	fp, table := builtTable(t)
	payload := EncodeTable(fp, table)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"empty", func(p []byte) []byte { return nil }, "header needs"},
		{"short header", func(p []byte) []byte { return p[:tableCodecHeaderLen-1] }, "header needs"},
		{"wrong magic", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[0] ^= 0xff
			return q
		}, "wrong magic"},
		{"truncated cells", func(p []byte) []byte { return p[:len(p)-5] }, "truncated"},
		{"trailing junk", func(p []byte) []byte { return append(append([]byte(nil), p...), 0, 1, 2) }, "trailing"},
		{"oversized shape", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			// Overwrite numWindows with a value whose cell count would
			// overflow a naive nw*nd*np multiplication.
			binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+32:], 1<<62)
			return q
		}, "out of range"},
		{"huge but in-range shape", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+32:], 1<<31-1)
			binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+40:], 1<<31-1)
			binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+48:], 1<<31-1)
			return q
		}, "cell limit"},
		{"wrong fingerprint", func(p []byte) []byte {
			// A payload for another trace is refused at the header, ahead
			// of the shape checks: even an impossible shape reports the
			// fingerprint.
			q := append([]byte(nil), p...)
			q[len(tableCodecMagic)] ^= 0xff
			binary.LittleEndian.PutUint64(q[len(tableCodecMagic)+32:], 1<<62)
			return q
		}, "is for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTable(tc.mutate(payload), fp, 0)
			if err == nil {
				t.Fatal("DecodeTable accepted a corrupt payload")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestTableCodecV2Compresses pins the codec's storage claim on a
// paper-shaped table: delta+varint must land at no more than half the
// flat int64 layout (the ≥2x acceptance bar), because the cold tier's
// whole point is holding more tables per byte.
func TestTableCodecV2Compresses(t *testing.T) {
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(16, grid.Square(4))
	fp := tr.Fingerprint()
	table := NewModel(tr).BuildResidenceTable()
	flat := flatTableLen(table)
	comp := len(EncodeTable(fp, table))
	if ratio := float64(flat) / float64(comp); ratio < 2 {
		t.Fatalf("compression ratio %.2f (flat %d, v2 %d), want >= 2", ratio, flat, comp)
	}
}

// payloadFingerprint is the fingerprint a payload's header declares
// (zero when the payload is shorter than the header).
func payloadFingerprint(data []byte) trace.Fingerprint {
	var fp trace.Fingerprint
	if len(data) >= tableCodecHeaderLen {
		copy(fp[:], data[len(tableCodecMagic):])
	}
	return fp
}

// FuzzTableCodecV2 feeds arbitrary payloads to DecodeTable: it must
// never panic, and anything it accepts must survive a re-encode/decode
// cycle with identical values. Byte identity is NOT required — varints
// are non-canonical, so an over-long encoding decodes fine but
// re-encodes shorter; value identity is the invariant.
func FuzzTableCodecV2(f *testing.F) {
	var fp trace.Fingerprint
	f.Add([]byte{})
	f.Add([]byte(tableCodecMagic))
	f.Add(EncodeTable(fp, NewResidenceTable(0, 0, 0)))
	f.Add(EncodeTable(fp, NewResidenceTable(1, 1, 1)))
	f.Add(EncodeTable(fp, NewResidenceTable(2, 3, 4)))
	// A stale pimtab-v1 tag must be rejected, not crash.
	f.Add(append([]byte("pimtab-v1\n"), EncodeTable(fp, NewResidenceTable(2, 3, 4))[len(tableCodecMagic):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp := payloadFingerprint(data)
		table, err := DecodeTable(data, fp, 0)
		if err != nil {
			return
		}
		table2, err := DecodeTable(EncodeTable(fp, table), fp, 0)
		if err != nil {
			t.Fatalf("re-decode of an accepted payload failed: %v", err)
		}
		if !sameTable(table2, table) {
			t.Fatal("decode/encode/decode is not value-identity")
		}
	})
}

// BenchmarkTableCodecV2 measures encode and decode throughput and
// reports the compression ratio over the flat int64 layout on a
// paper-shaped table; scripts/bench.sh snapshots the ratio into
// BENCH_CACHE.json.
func BenchmarkTableCodecV2(b *testing.B) {
	gen, err := workload.ByName("lu")
	if err != nil {
		b.Fatal(err)
	}
	tr := gen.Generate(16, grid.Square(4))
	fp := tr.Fingerprint()
	table := NewModel(tr).BuildResidenceTable()
	payload := EncodeTable(fp, table)
	ratio := float64(flatTableLen(table)) / float64(len(payload))

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(payload))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendTable(buf[:0], fp, table)
		}
		b.ReportMetric(ratio, "ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeTable(payload, fp, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ratio, "ratio")
	})
}

// CheckShape accepts exactly the windows x data x processors shape the
// trace implies and names both shapes when refusing another.
func TestCheckShape(t *testing.T) {
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(6, grid.Square(3))
	if err := NewModel(tr).BuildResidenceTable().CheckShape(tr.Shape()); err != nil {
		t.Fatalf("table built from the trace refused: %v", err)
	}
	nw, nd, np := tr.NumWindows(), tr.NumData, tr.Grid.NumProcs()
	for _, bad := range []ResidenceTable{
		NewResidenceTable(nw+1, nd, np),
		NewResidenceTable(nw, nd-1, np),
		NewResidenceTable(nw, nd, np+1),
	} {
		err := bad.CheckShape(tr.Shape())
		if err == nil || !strings.Contains(err.Error(), "does not match trace") {
			t.Fatalf("shape %dx%dx%d accepted or misreported: %v", bad.NumWindows(), bad.NumData(), bad.NumProcs(), err)
		}
	}
}
