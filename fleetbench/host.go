package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the host block every result carries, so a drifting run
// can be explained from the machine it ran on.
type hostInfo struct {
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernel      string  `json:"kernel"`
	RefMSBefore float64 `json:"ref_ms_before"`
	RefMSAfter  float64 `json:"ref_ms_after"`
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs(), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoopMS times a fixed CPU-bound loop (xorshift over a register, no
// memory traffic, no allocation). It is diagnostic only: it shows host
// speed drift between runs and never scales a reported metric.
func refLoopMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return ms(time.Since(start))
}

// refSamples returns the reference loop's time, median of five.
func refSamples() float64 {
	v := make([]float64, 5)
	for i := range v {
		v[i] = refLoopMS()
	}
	sort.Float64s(v)
	return v[2]
}

// procSnap is the process-wide resource view taken before and after a
// phase.
type procSnap struct {
	cpu         time.Duration // user + system CPU time
	allocBytes  uint64
	allocObjs   uint64
	gcCPU       float64 // seconds, runtime estimate
	totalCPUEst float64 // seconds, runtime estimate
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapProc() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocObjs = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPUEst = samples[3].Value.Float64()
	return s
}

// resetPeakRSS clears the kernel's resident-set high-water mark so the
// next peakRSSMB reading covers only what follows. It reports whether
// the reset worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// rssMB reads a /proc/self/status field (VmHWM or VmRSS) in MiB.
func rssMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != field {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
