package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid != tr.Grid || got.NumData != tr.NumData {
		t.Fatalf("header mismatch: %v/%d", got.Grid, got.NumData)
	}
	if !reflect.DeepEqual(got.Windows, tr.Windows) {
		t.Fatalf("windows mismatch:\ngot  %v\nwant %v", got.Windows, tr.Windows)
	}
}

func TestEncodeDecodeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got.Grid != tr.Grid || got.NumData != tr.NumData || got.NumWindows() != tr.NumWindows() {
			t.Fatalf("iter %d: shape mismatch", i)
		}
		for w := range tr.Windows {
			a, b := tr.Windows[w].Refs, got.Windows[w].Refs
			if len(a) != len(b) {
				t.Fatalf("iter %d window %d: %d vs %d refs", i, w, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("iter %d window %d ref %d: %v vs %v", i, w, j, a[j], b[j])
				}
			}
		}
	}
}

func TestDecodeEmptyTrace(t *testing.T) {
	in := "pimtrace v1\ngrid 2 2\ndata 5\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumWindows() != 0 || tr.NumData != 5 {
		t.Fatalf("got %d windows, %d data", tr.NumWindows(), tr.NumData)
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := `pimtrace v1
# a comment
grid 2 2

data 2
window
# inside a window
ref 0 1 1
`
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRefs() != 1 {
		t.Fatalf("NumRefs = %d", tr.NumRefs())
	}
}

// A small trace decodes without a large up-front scanner buffer: the
// scanner starts small and grows only for long lines.
func TestDecodeSmallTraceAllocs(t *testing.T) {
	const in = "pimtrace v1\ngrid 2 2\ndata 2\nwindow\nref 0 0 3\nref 3 1 1\nwindow\nref 2 0 2\n"
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("decoding a 2-window 2x2 trace allocated %d bytes, want < 16 KiB", per)
	}
}

// A line far longer than the scanner's starting buffer still decodes:
// the buffer grows up to the line cap.
func TestDecodeLongCommentLine(t *testing.T) {
	in := "pimtrace v1\n# " + strings.Repeat("x", 100<<10) + "\ngrid 2 2\ndata 2\nwindow\nref 0 1 1\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumWindows() != 1 || tr.NumRefs() != 1 {
		t.Fatalf("got %d windows, %d refs; want 1 and 1", tr.NumWindows(), tr.NumRefs())
	}
}

// TestDecodeErrors walks every malformed-input branch of the decoder
// and, for errors attributable to a specific input line, requires the
// line number to appear in the error text — the property that makes a
// megabyte trace file debuggable. Comment and blank lines before the
// offending line are counted (line numbers refer to the raw input).
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     string // substring the error must contain
	}{
		{"empty", "", `want "pimtrace v1" header`},
		{"bad header", "something else\n", "line 1: bad header"},
		{"bad header with junk", "pimtrace v1 extra\n", "line 1: bad header"},
		{"missing grid", "pimtrace v1\ndata 3\nwindow\n", "line 3: window before grid/data"},
		{"missing data", "pimtrace v1\ngrid 2 2\nwindow\n", "line 3: window before grid/data"},
		{"missing grid and data at eof", "pimtrace v1\n", "missing grid/data"},
		{"duplicate grid", "pimtrace v1\ngrid 2 2\ngrid 2 2\ndata 1\n", "line 3: duplicate grid"},
		{"duplicate data", "pimtrace v1\ngrid 2 2\ndata 1\ndata 1\n", "line 4: duplicate data"},
		{"bad grid argc", "pimtrace v1\ngrid 2\ndata 1\n", "line 2: grid:"},
		{"grid trailing junk", "pimtrace v1\ngrid 2 2 9\ndata 1\n", "line 2: grid:"},
		{"bad grid value", "pimtrace v1\ngrid x 2\ndata 1\n", "line 2: grid:"},
		{"zero grid", "pimtrace v1\ngrid 0 2\ndata 1\n", "line 2: invalid grid 0x2"},
		{"negative grid", "pimtrace v1\ngrid 2 -2\ndata 1\n", "line 2: invalid grid"},
		{"bad data argc", "pimtrace v1\ngrid 2 2\ndata 1 2\n", "line 3: data takes one argument"},
		{"bad data value", "pimtrace v1\ngrid 2 2\ndata -3\n", `line 3: bad data count "-3"`},
		{"non-numeric data", "pimtrace v1\ngrid 2 2\ndata many\n", `line 3: bad data count "many"`},
		{"window trailing junk", "pimtrace v1\ngrid 2 2\ndata 1\nwindow 7\n", "line 4: window takes no arguments"},
		{"ref outside window", "pimtrace v1\ngrid 2 2\ndata 1\nref 0 0 1\n", "line 4: ref outside a window"},
		{"truncated ref", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0\n", "line 5: ref takes three arguments"},
		{"ref trailing junk", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 1 junk\n", "line 5: ref takes three arguments"},
		{"ref non-numeric", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref a 0 1\n", "line 5: malformed ref"},
		{"unknown directive", "pimtrace v1\ngrid 2 2\ndata 1\nbogus\n", `line 4: unknown directive "bogus"`},
		{"ref proc out of range", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 9 0 1\n", "line 5: ref processor 9 outside 2x2"},
		{"ref proc negative", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref -1 0 1\n", "line 5: ref processor -1"},
		{"ref data out of range", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 5 1\n", "line 5: ref data 5 outside [0,1)"},
		{"ref data negative", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 -4 1\n", "line 5: ref data -4"},
		{"ref volume zero", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 0\n", "line 5: ref volume 0"},
		{"ref volume negative", "pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 -2\n", "line 5: ref volume -2"},
		{"line counting skips nothing", "pimtrace v1\n# comment\n\ngrid 2 2\ndata 1\nwindow\nref 9 0 1\n", "line 7: ref processor 9"},
	}
	for _, c := range cases {
		_, err := Decode(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: Decode succeeded, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

// TestDecodeRejectsWindowTrailingJunk is the regression test for the
// hardening fix: "window" with trailing fields used to be accepted
// silently, hiding typos like "window 3" that intended a count.
func TestDecodeRejectsWindowTrailingJunk(t *testing.T) {
	in := "pimtrace v1\ngrid 2 2\ndata 1\nwindow extra\nref 0 0 1\n"
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Fatal("Decode accepted a window directive with trailing fields")
	}
}

// TestDecodeRefErrorsCiteLine is the regression test for eager event
// validation: out-of-range processor/data ids and non-positive volumes
// used to be caught only by the whole-trace Validate sweep after
// parsing, which cannot name the offending input line.
func TestDecodeRefErrorsCiteLine(t *testing.T) {
	for _, in := range []string{
		"pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 4 0 1\n",
		"pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 1 1\n",
		"pimtrace v1\ngrid 2 2\ndata 1\nwindow\nref 0 0 -1\n",
	} {
		_, err := Decode(strings.NewReader(in))
		if err == nil {
			t.Fatalf("Decode accepted invalid input %q", in)
		}
		if !strings.Contains(err.Error(), "line 5") {
			t.Errorf("error %q does not cite line 5", err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
