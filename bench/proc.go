package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, a few hundred microseconds after exec.
var processStart = time.Now()

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new resident-set high-water mark (Linux: writing 5 to
// clear_refs), so that a workload made of episodes can report the median
// episode's peak and not the one episode a collection cycle fell badly in.
// Where the kernel refuses, every reading stays the mark of the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident-set high-water mark in MB since process
// start or the last resetPeakRSS. Linux reports ru_maxrss in kilobytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadAvg1 reads the 1-minute load average; 0 when it cannot be read.
func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// envInfo records where a run was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg1_at_start"`
}

// pinProcs pins GOMAXPROCS to the CPU count and reports the environment. All
// load comes from at most that many client goroutines and connections.
func pinProcs() envInfo {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	return envInfo{NProc: n, GOMAXPROCS: n, GoVersion: runtime.Version(), LoadAvg1: loadAvg1()}
}

// memCounters is the slice of runtime.MemStats the per-layer table uses.
type memCounters struct {
	allocBytes, allocs, gcPauseNS uint64
}

// addDelta accumulates the growth between two readings.
func (m *memCounters) addDelta(after, before memCounters) {
	m.allocBytes += after.allocBytes - before.allocBytes
	m.allocs += after.allocs - before.allocs
	m.gcPauseNS += after.gcPauseNS - before.gcPauseNS
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, gcPauseNS: ms.PauseTotalNs}
}
