package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/service"
)

// drawBodies returns the first n request bodies a workload's measured
// client would send for the seed, without a fleet.
func drawBodies(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	switch w := w.(type) {
	case *hotPaper:
		src := w.source(0)
		for i := 0; i < n; i++ {
			body, _ := src.next(src.r)
			out = append(out, body)
		}
	case *zipfChurn:
		src := w.source(0, streamMeasure)
		for i := 0; i < n; i++ {
			body, _ := src.next(src.r)
			out = append(out, body)
		}
	case *sessionDeltas:
		r := clientRand(seed, 0, streamMeasure)
		states := make([]*sessionState, len(w.initial))
		for i, tr := range w.initial {
			states[i] = newSessionState(i, "", tr)
		}
		for i := 0; i < n; i++ {
			body, err := json.Marshal(states[i%len(states)].nextDelta(r))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
	default:
		t.Fatalf("no generator for %T", w)
	}
	return out
}

func TestGeneratorsSeedDeterministic(t *testing.T) {
	for _, name := range []string{"hot-paper", "zipf-churn", "session-deltas"} {
		t.Run(name, func(t *testing.T) {
			a := drawBodies(t, name, 5, 200)
			b := drawBodies(t, name, 5, 200)
			c := drawBodies(t, name, 6, 200)
			same := true
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("seed 5 body %d differs between two generations", i)
				}
				same = same && bytes.Equal(a[i], c[i])
			}
			if same {
				t.Fatal("seeds 5 and 6 generated the same sequence")
			}
		})
	}
}

func TestDigestBodyMatchesCenters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	centers := make([][]int, 7)
	for i := range centers {
		centers[i] = make([]int, 11)
		for j := range centers[i] {
			centers[i][j] = r.Intn(16)
		}
	}
	want := service.CostJSON{Residence: 12, Move: 30, Total: 42}
	for _, indent := range []string{"", "  "} {
		body, err := json.MarshalIndent(service.Response{Centers: centers, Cost: want}, "", indent)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBody(body, expect{digest: digestCenters(centers), cost: want}); err != nil {
			t.Errorf("indent %q: %v", indent, err)
		}
		centers[3][4]++
		if err := checkBody(body, expect{digest: digestCenters(centers), cost: want}); err == nil {
			t.Errorf("indent %q: a changed center still matched", indent)
		}
		centers[3][4]--
	}
}

// tracedRun runs a short op-count-bounded traced run.
func tracedRun(t *testing.T, name string, seed int64) *result {
	t.Helper()
	res, err := run(options{workload: name, seed: seed, maxOps: 40, trace: true, setups: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Fatalf("run not clean: correct=%t failed=%d (%s%s)", res.correct, res.failed,
			res.report.FirstError, res.report.VerifyError)
	}
	for _, d := range perLayerDefs {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	return res
}

// TestProgramCountsRepeat pins the program-made counts that must repeat
// exactly across two same-seed runs of the same op count.
func TestProgramCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the fleet four times")
	}
	for _, c := range []struct{ workload, metric string }{
		{"hot-paper", "service.cache.builds_per_kop"},
		{"session-deltas", "delta.layers_recomputed"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			a := tracedRun(t, c.workload, 9).metrics[c.metric].Value
			b := tracedRun(t, c.workload, 9).metrics[c.metric].Value
			if a != b {
				t.Fatalf("%s: %v then %v on the same seed", c.metric, a, b)
			}
			if c.workload == "hot-paper" && a != 0 {
				t.Fatalf("hot-paper built %v tables per kop after warm-up, want 0", a)
			}
			if c.workload == "session-deltas" && a <= 0 {
				t.Fatalf("session-deltas recomputed %v layers per op, want > 0", a)
			}
		})
	}
}
