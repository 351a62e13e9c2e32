package sched

import (
	"bytes"
	"testing"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// FuzzBodyVsGoroutine is the differential oracle for the many-task bodies:
// the same UUniFast-generated task set runs once with the continuation
// bodies NewManyTask builds and once with blocking scripts through the
// kernel/oracle adapter — same task set, thread names, priorities and CPUs —
// and the two trace files must be byte-identical. Both forms drive the same
// kernel handlers, so any divergence in the body programs — an extra or
// missing request, a changed burst length or release time, a reordered
// wake — shows up as a differing trace byte. The many-task bodies issue only
// SleepUntil and positive Computes, so the degenerate-action short-circuits
// and relative Sleep are pinned by the kernel's
// TestBodyVsGoroutineIdenticalTrace instead. Wired into `make fuzz-smoke`
// for 30s per CI run.
func FuzzBodyVsGoroutine(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(60), false)
	f.Add(uint64(0xbeef), uint8(17), uint8(15), true)
	f.Add(uint64(42), uint8(32), uint8(3), false)
	f.Add(uint64(7), uint8(1), uint8(90), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, utilRaw uint8, releaseOnly bool) {
		n := int(nRaw)%32 + 1
		util := float64(utilRaw%100+1) / 200 // (0, 0.5] per task
		newKernel := func() (*engine.Engine, *kernel.Kernel, *bytes.Buffer) {
			mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2},
				machine.NoLoad, machine.DefaultCostModel(), seed)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New()
			k := kernel.New(e, mach)
			var buf bytes.Buffer
			k.SetTrace(trace.New(trace.Config{
				CPUs: mach.Topology().NumHWThreads(),
				Sink: &buf,
			}))
			return e, k, &buf
		}
		// The periodic bodies never exit; run a bounded slice of virtual
		// time and cut both forms off at the same point.
		run := func(e *engine.Engine, k *kernel.Kernel, buf *bytes.Buffer) []byte {
			for i := 0; i < 20000; i++ {
				if !e.Step() {
					break
				}
			}
			oracle.Shutdown(k)
			if err := k.Trace().Close(k.ThreadInfos()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		e, k, buf := newKernel()
		sys, err := NewManyTask(k, ManyTaskConfig{
			N:                  n,
			Seed:               seed,
			UtilizationPerTask: util,
			ReleaseOnly:        releaseOnly,
		})
		if err != nil {
			t.Skip(err) // generator rejected the parameters
		}
		cfgs := make([]kernel.ThreadConfig, len(sys.Threads))
		for i, th := range sys.Threads {
			cfgs[i] = kernel.ThreadConfig{Name: th.Name(), Priority: th.Priority(), CPU: th.CPU()}
		}
		sys.Start()
		contTrace, contJobs := run(e, k, buf), sys.Jobs()

		e, k, buf = newKernel()
		gorJobs := 0
		threads := make([]*kernel.Thread, len(cfgs))
		for i, tk := range sys.Set.Tasks {
			threads[i] = oracle.MustNewThread(k, cfgs[i], blockingBody(tk, releaseOnly, &gorJobs))
		}
		for _, th := range threads {
			th.Start()
		}
		gorTrace := run(e, k, buf)

		if contJobs != gorJobs {
			t.Fatalf("job counts diverge: continuation %d, goroutine oracle %d", contJobs, gorJobs)
		}
		if !bytes.Equal(contTrace, gorTrace) {
			i := 0
			for i < len(contTrace) && i < len(gorTrace) && contTrace[i] == gorTrace[i] {
				i++
			}
			t.Fatalf("traces diverge at byte %d (continuation %d bytes, goroutine oracle %d bytes; seed=%#x n=%d util=%.3f releaseOnly=%v)",
				i, len(contTrace), len(gorTrace), seed, n, util, releaseOnly)
		}
	})
}

// blockingBody is manyTaskBody's program as a blocking oracle script,
// counting finished jobs into *jobs.
func blockingBody(tk task.Task, releaseOnly bool, jobs *int) func(*oracle.TCB) {
	if releaseOnly {
		return func(c *oracle.TCB) {
			for release := c.Now(); ; release = release.Add(tk.Period) {
				c.SleepUntil(release)
				*jobs++
			}
		}
	}
	return func(c *oracle.TCB) {
		for release := c.Now(); ; release = release.Add(tk.Period) {
			c.SleepUntil(release)
			c.Compute(tk.Mandatory)
			c.Compute(tk.Windup)
			*jobs++
		}
	}
}
