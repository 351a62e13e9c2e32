package rtseed

// Tracing-overhead benchmarks: the per-event cost the tracing subsystem
// adds to the scheduling core, in three modes — tracing off (the nil-check
// baseline), ring-only (flight recorder, records overwritten in place), and
// file-backed (full ring spilled to a sink). The workload is the release-
// only many-task sweep of BenchmarkManyTaskKernel, so every event is
// scheduling-core work and the emit path runs on each of them.
//
// BENCH_PR4.json (make bench-json) records these; the acceptance bar is
// tracing-off within noise of the PR 3 BenchmarkKernelEventThroughput
// baseline and 0 allocs/op in every mode.
//
// BenchmarkTraceReadBack measures the other end of the pipeline: decoding
// a file-backed trace and analyzing it, as rtseed-trace and the cluster's
// per-machine read-back do.

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/sched"
	"rtseed/internal/trace"
)

func BenchmarkTracingOverhead(b *testing.B) {
	modes := []struct {
		name   string
		attach func(k *kernel.Kernel)
	}{
		{"off", func(k *kernel.Kernel) {}},
		{"ring", func(k *kernel.Kernel) {
			k.SetTrace(trace.New(trace.Config{
				CPUs: k.Machine().Topology().NumHWThreads(),
			}))
		}},
		{"file", func(k *kernel.Kernel) {
			k.SetTrace(trace.New(trace.Config{
				CPUs: k.Machine().Topology().NumHWThreads(),
				Sink: io.Discard,
			}))
		}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			mach := machine.MustNew(machine.XeonPhi3120A(), machine.NoLoad, noJitter(), 1)
			e := engine.New()
			k := kernel.New(e, mach)
			mode.attach(k)
			sys, err := sched.NewManyTask(k, sched.ManyTaskConfig{
				N:                  128,
				Seed:               0xbeef,
				UtilizationPerTask: 0.15,
				ReleaseOnly:        true,
			})
			if err != nil {
				b.Fatal(err)
			}
			sys.Start()
			for i := 0; i < 64*128; i++ {
				if !e.Step() {
					b.Fatal("engine ran dry during warm-up")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.Step() {
					b.Fatal("engine ran dry")
				}
			}
			b.StopTimer()
			if tr := k.Trace(); tr != nil && tr.Emitted() == 0 {
				b.Fatal("tracer attached but nothing emitted")
			}
			k.Shutdown()
		})
	}
}

// readBackTrace synthesizes a file-backed trace of 384,000 records over 32
// CPUs: 256 tasks of one mandatory and two optional threads, 100 jobs each,
// every job its release, dispatches, part boundaries and end. The default
// ring capacity spills it in interleaved per-CPU chunks, as a simulated
// machine's recording is. Every 97th job is preempted and misses.
func readBackTrace(b *testing.B) []byte {
	b.Helper()
	const cpus, tasks, jobs = 32, 256, 100
	var buf bytes.Buffer
	tr := trace.New(trace.Config{CPUs: cpus, Sink: &buf})
	var threads []trace.ThreadInfo
	for k := 0; k < tasks; k++ {
		base := uint32(3*k + 1)
		threads = append(threads,
			trace.ThreadInfo{TID: base, CPU: uint16(k % cpus), Priority: 90, Name: fmt.Sprintf("t%d.mand", k)},
			trace.ThreadInfo{TID: base + 1, CPU: uint16((k + 1) % cpus), Priority: 50, Name: fmt.Sprintf("t%d.opt0", k)},
			trace.ThreadInfo{TID: base + 2, CPU: uint16((k + 2) % cpus), Priority: 50, Name: fmt.Sprintf("t%d.opt1", k)})
	}
	at := engine.Time(0)
	emit := func(cpu uint16, tid uint32, kind trace.Kind, arg uint64) {
		at = at.Add(time.Microsecond)
		tr.Emit(at, cpu, tid, kind, arg)
	}
	for job := 0; job < jobs; job++ {
		for k := 0; k < tasks; k++ {
			mand, cpu, j := uint32(3*k+1), uint16(k%cpus), uint64(job)
			emit(cpu, mand, trace.KindJobRelease, j)
			emit(cpu, mand, trace.KindDispatch, 0)
			emit(cpu, mand, trace.KindMandStart, j)
			for p := 0; p < 2; p++ {
				opt, ocpu := mand+1+uint32(p), uint16((k+1+p)%cpus)
				end := trace.KindOptEnd
				if (job+k+p)%5 == 0 {
					end = trace.KindOptTerm
				}
				emit(ocpu, opt, trace.KindDispatch, 0)
				emit(ocpu, opt, trace.KindOptStart, trace.PackJobPart(job, p))
				emit(ocpu, opt, end, trace.PackJobPart(job, p))
				emit(ocpu, opt, trace.KindBlock, 0)
			}
			emit(cpu, mand, trace.KindWindupStart, j)
			emit(cpu, mand, trace.KindJobEnd, j)
			if (job*tasks+k)%97 == 0 {
				emit(cpu, mand, trace.KindPreempt, 0)
				emit(cpu, mand+1, trace.KindDispatch, 0)
				emit(cpu, mand, trace.KindDeadlineMiss, trace.PackMiss(job, time.Millisecond))
			} else {
				emit(cpu, mand, trace.KindDeadlineMet, j)
				emit(cpu, mand, trace.KindSleep, 0)
			}
		}
	}
	if err := tr.Close(threads); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkTraceReadBack(b *testing.B) {
	data := readBackTrace(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := trace.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if a := trace.Analyze(t); len(a.Tasks) != 256 || len(a.Misses) == 0 {
			b.Fatalf("analysis saw %d tasks and %d misses", len(a.Tasks), len(a.Misses))
		}
	}
}
