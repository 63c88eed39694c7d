package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExampleArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "example"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SCDS", "LOMCDS", "GOMCDS", "(1,0)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("example output missing %q", want)
		}
	}
}

func TestTable1SmallSize(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1", "-sizes", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 1") || !strings.Contains(s, "average improvement") {
		t.Errorf("table 1 output:\n%s", s)
	}
	if !strings.Contains(s, "8x8") {
		t.Error("size column missing")
	}
}

func TestTable2SmallSize(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "2", "-sizes", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "after grouping") {
		t.Errorf("table 2 output:\n%s", out.String())
	}
}

func TestStudies(t *testing.T) {
	for _, table := range []string{"ablation", "sweep", "sim", "online", "replica", "exact", "scaling", "coarse", "kernel"} {
		var out bytes.Buffer
		if err := run([]string{"-table", table, "-sizes", "8", "-n", "8"}, &out); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", table)
		}
	}
}

// TestKernelArtifact: the kernel comparison must attest cell-for-cell
// agreement between the separable and naive residence kernels before
// it reports any timing, so the speedup is a speedup of equal output.
func TestKernelArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "kernel", "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Residence kernels", "separable", "naive", "kernels agree on all cells", "speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("kernel output missing %q:\n%s", want, s)
		}
	}
}

// TestDPKernelArtifact: the DP-kernel comparison must attest that the
// sweep and dense kernels returned identical paths for every item
// before it reports any timing, so the speedup is a speedup of equal
// output.
func TestDPKernelArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "dpkernel", "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"GOMCDS DP kernels", "sweep", "naive", "kernels agree on every placement", "speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("dpkernel output missing %q:\n%s", want, s)
		}
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-table", "bogus"},
		{"-grid", "bad"},
		{"-sizes", "x"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestVerifyFlag runs Table 1 with the independent referee enabled:
// every schedule is invariant-checked and its model cost re-derived
// from scratch, and the run attests success at the end.
func TestVerifyFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1", "-sizes", "8", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 1") {
		t.Errorf("table missing:\n%s", s)
	}
	if !strings.Contains(s, "verify: all schedules passed invariant + independent cost checks") {
		t.Errorf("verification attestation missing:\n%s", s)
	}
	if strings.Contains(s, "no referee hooks") {
		t.Errorf("table 1 is fully refereed, unexpected caveat:\n%s", s)
	}
}

// TestVerifyFlagUnrefereedArtifact: the extension studies carry no
// referee hooks, so -verify must disclose that instead of printing a
// blanket attestation it cannot back.
func TestVerifyFlagUnrefereedArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "scaling", "-n", "8", "-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "verify: no referee hooks for scaling") {
		t.Errorf("unrefereed caveat missing:\n%s", s)
	}
	if strings.Contains(s, "all schedules passed") {
		t.Errorf("attestation printed for unrefereed artifact:\n%s", s)
	}
}

// TestStagesFlag: -stages appends a per-stage time breakdown covering
// the cost-model table builds and the scheduler runs; without the flag
// no breakdown is printed.
func TestStagesFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1", "-sizes", "8", "-stages"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"stage breakdown:", "cost.residence_table", "sched.scds", "sched.lomcds", "sched.gomcds"} {
		if !strings.Contains(s, want) {
			t.Errorf("-stages output missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	if err := run([]string{"-table", "1", "-sizes", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "stage breakdown:") {
		t.Error("breakdown printed without -stages")
	}
}

// TestStagesFlagKernelArtifact: the kernel study's two builds record
// through the same sink, so the breakdown distinguishes the separable
// and naive kernels.
func TestStagesFlagKernelArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "kernel", "-n", "4", "-stages"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"cost.residence_table", "cost.residence_table_naive"} {
		if !strings.Contains(s, want) {
			t.Errorf("kernel -stages output missing %q:\n%s", want, s)
		}
	}
}
