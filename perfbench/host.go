package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is the process's cumulative allocation and garbage-collector
// counters at one instant; the difference of two snapshots is what one
// iteration cost.
type hostSnap struct {
	totalAlloc uint64
	gcCycles   uint64
	pauseNs    uint64
	gcCPU      float64 // GC CPU seconds, accounted as each cycle ends
	procCPU    float64 // user plus system CPU seconds of the process
	minflt     int64   // minor page faults of the process
}

var hostMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(hostMetrics))
	for i, name := range hostMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSnap{
		totalAlloc: ms.TotalAlloc,
		gcCycles:   samples[0].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
		gcCPU:      samples[1].Value.Float64(),
		procCPU:    seconds(ru.Utime) + seconds(ru.Stime),
		minflt:     ru.Minflt,
	}
}

func seconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// procCPU returns the user plus system CPU time the process has used. The
// kernel excludes time a hypervisor stole from the virtual CPU.
func procCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostDelta is the change between two snapshots.
type hostDelta struct {
	allocMB  float64
	gcCycles float64
	pauseMs  float64
	gcCPU    float64 // share of the process's CPU time spent in the GC
	faults   int64   // minor page faults
}

func (a hostSnap) to(b hostSnap) hostDelta {
	d := hostDelta{
		allocMB:  float64(b.totalAlloc-a.totalAlloc) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
		pauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
		faults:   b.minflt - a.minflt,
	}
	if cpu := b.procCPU - a.procCPU; cpu > 0 {
		d.gcCPU = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// resetPeakRSS sets the process's peak resident set size back to its
// current resident set size, so that peakRSSMB reads the peak since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size in MiB, the
// VmHWM line of /proc/self/status. Getrusage's ru_maxrss is not used: Linux
// carries it across exec, so it would include the go command that started
// this process.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
