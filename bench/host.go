package main

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// hostInfo is the header every result carries, so timings taken on
// different machines are never compared blindly.
type hostInfo struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// currentHost describes this machine. The CPU model is read from
// /proc/cpuinfo only when withCPU is set: a single-workload run reads and
// writes nothing outside its working directory.
func currentHost(withCPU bool) hostInfo {
	h := hostInfo{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if withCPU {
		h.CPU = cpuModel()
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return ""
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink uint64

// calibrate times a fixed ALU-only loop (xorshift, no memory traffic) and
// returns the fastest of three passes in milliseconds. The figure moves
// only with the host's clock and its neighbours, never with the code
// under test, so a run whose calibration differs from its pair's by more
// than 10% was taken on a different machine state.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for range 3 {
		x := uint64(88172645463325252)
		start := time.Now()
		for range 1 << 25 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, time.Since(start))
		calibrationSink += x
	}
	return best.Seconds() * 1e3
}

// referenceSink keeps the reference workload's result live.
var referenceSink uint64

// reference runs a fixed standard-library workload shaped like the
// study's own work — a growing slice of records, a hash map, a sort —
// and returns its wall time. It runs no code of the repository, so a
// change under test cannot move it; only the host can. Timed between the
// operations of a run, it tracks how fast the host runs at that moment,
// and an operation's median divided by the reference's median cancels
// most of the drift a shared machine shows over minutes.
func reference(records int) time.Duration {
	type rec struct {
		key, val uint64
		pad      [6]uint64
	}
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Now()
	xs := make([]rec, 0, 1024)
	m := make(map[uint64]int)
	for i := range records {
		k := rng.Uint64() % uint64(records/4+1)
		xs = append(xs, rec{key: k, val: uint64(i)})
		m[k]++
	}
	slices.SortFunc(xs, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
	referenceSink += uint64(len(m)) + xs[len(xs)/2].val
	return time.Since(start)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a point-in-time reading of the allocator, the
// collector and the process's CPU time.
type runtimeSample struct {
	ms  runtime.MemStats
	cpu time.Duration
}

func sampleRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.ms)
	s.cpu = cpuTime()
	return s
}

// runtimeUse accumulates what the measured operations cost the runtime.
type runtimeUse struct {
	ops                 int
	cpu                 time.Duration
	alloc, gcs, pauseNs uint64
}

// add charges the interval between two samples.
func (u *runtimeUse) add(before, after runtimeSample) {
	u.cpu += after.cpu - before.cpu
	u.alloc += after.ms.TotalAlloc - before.ms.TotalAlloc
	u.gcs += uint64(after.ms.NumGC - before.ms.NumGC)
	u.pauseNs += after.ms.PauseTotalNs - before.ms.PauseTotalNs
}

func (u *runtimeUse) cpuMSPerOp() float64 {
	return u.cpu.Seconds() * 1e3 / float64(max(u.ops, 1))
}

// metrics returns the per-operation runtime figures.
func (u *runtimeUse) metrics(kind string) []metric {
	n := float64(max(u.ops, 1))
	return []metric{
		{Name: "runtime.alloc_mb_per_op", Unit: "MB", Value: float64(u.alloc) / 1e6 / n, N: u.ops, Better: "lower", Kind: kind},
		{Name: "runtime.gc_cycles_per_op", Unit: "count", Value: float64(u.gcs) / n, N: u.ops, Better: "lower", Kind: kind},
		{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Value: float64(u.pauseNs) / 1e6 / n, N: u.ops, Better: "lower", Kind: kind},
		{Name: "runtime.peak_rss_mb", Unit: "MB", Value: peakRSSMB(), Better: "lower", Kind: kind},
	}
}

// retainedHeapMB forces a collection and reports the live heap; callers
// keep the value under measurement reachable across the call.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
