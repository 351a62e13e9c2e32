package kernel_test

import (
	"testing"
	"testing/quick"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
)

// Randomized robustness: a handful of threads run random programs of
// computes, sleeps, condvar traffic, mutex sections, timers and
// interruptible bursts. Whatever the interleaving, the simulation must
// terminate, stay deterministic, and leave every thread exited.
func TestPropertyRandomPrograms(t *testing.T) {
	run := func(seed uint64) (engine.Time, uint64) {
		model := machine.DefaultCostModel()
		model.JitterFrac = 0
		mach, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.CPULoad, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New()
		k := kernel.New(eng, mach)
		rng := engine.NewRand(seed)
		cv := k.NewCondVar("cv")
		mu := k.NewMutex("mu")

		const nThreads = 5
		for i := 0; i < nThreads; i++ {
			prio := 40 + rng.Intn(20)
			cpu := machine.HWThread(rng.Intn(8))
			ops := make([]int, 12)
			for j := range ops {
				ops[j] = rng.Intn(8)
			}
			durs := make([]time.Duration, len(ops))
			for j := range durs {
				durs[j] = time.Duration(rng.Intn(5)+1) * time.Millisecond
			}
			th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "f", Priority: prio, CPU: cpu}, func(c *oracle.TCB) {
				for j, op := range ops {
					switch op {
					case 0:
						c.Compute(durs[j])
					case 1:
						c.Sleep(durs[j])
					case 2:
						c.CondSignal(cv)
					case 3:
						// Wait only when someone is bound to signal later:
						// signal unconditionally first to avoid guaranteed
						// deadlock, then do a timed compute instead of an
						// unbounded wait.
						c.CondSignal(cv)
						c.Compute(durs[j] / 2)
					case 4:
						c.MutexLock(mu)
						c.Compute(durs[j])
						c.MutexUnlock(mu)
					case 5:
						c.TimerSet(c.Now().Add(durs[j] / 2))
						c.ComputeInterruptible(durs[j])
						c.TimerStop()
						c.SetAlarmMask(false)
					case 6:
						c.ChargeOp(machine.OpSigSetjmp)
					case 7:
						c.TimerSet(c.Now().Add(durs[j]))
						c.Compute(durs[j] / 2)
						c.TimerStop()
					}
				}
			})
			th.Start()
		}
		oracle.Run(k)
		return eng.Now(), eng.Steps()
	}
	f := func(seed uint64) bool {
		t1, s1 := run(seed)
		t2, s2 := run(seed)
		return t1 == t2 && s1 == s2 && t1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// All threads exited after a random run (no stuck states survive Shutdown).
func TestRandomProgramsAllExit(t *testing.T) {
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	mach, _ := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.NoLoad, model, 1)
	k := kernel.New(engine.New(), mach)
	cv := k.NewCondVar("cv")
	for i := 0; i < 4; i++ {
		i := i
		th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "x", Priority: 50 + i, CPU: machine.HWThread(i % 8)}, func(c *oracle.TCB) {
			if i == 0 {
				c.CondWait(cv) // never signalled: unwound at shutdown
				return
			}
			c.Compute(time.Millisecond)
		})
		th.Start()
	}
	oracle.Run(k)
	for _, th := range k.Threads() {
		if th.State() != kernel.StateExited {
			t.Fatalf("thread %v still %v after shutdown", th, th.State())
		}
	}
}
