package kernel_test

import (
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// testKernel builds a kernel on a small machine with zero-jitter costs so
// timing assertions are exact.
func testKernel(t *testing.T, load machine.Load) *kernel.Kernel {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	topo := machine.Topology{Cores: 4, ThreadsPerCore: 2}
	m, err := machine.New(topo, load, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	return kernel.New(engine.New(), m)
}

func TestThreadRunsBody(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ran := false
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		ran = true
	})
	th.Start()
	oracle.Run(k)
	if !ran {
		t.Fatal("thread body did not run")
	}
	if th.State() != kernel.StateExited {
		t.Fatalf("state %v, want exited", th.State())
	}
}

func TestComputeAdvancesVirtualTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var end engine.Time
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(10 * time.Millisecond)
		end = c.Now()
	})
	th.Start()
	oracle.Run(k)
	// End time = dispatch cost + 10ms compute.
	if end < engine.At(10*time.Millisecond) {
		t.Fatalf("end %v, want >= 10ms", end)
	}
	if end > engine.At(11*time.Millisecond) {
		t.Fatalf("end %v, dispatch overhead implausibly large", end)
	}
}

func TestHigherPriorityPreempts(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var loEnd, hiEnd engine.Time
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(10 * time.Millisecond)
		loEnd = c.Now()
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(2 * time.Millisecond))
		c.Compute(5 * time.Millisecond)
		hiEnd = c.Now()
	})
	lo.Start()
	hi.Start()
	oracle.Run(k)
	if hiEnd >= loEnd {
		t.Fatalf("high-priority thread should finish first: hi=%v lo=%v", hiEnd, loEnd)
	}
	// lo must resume and complete its full 10ms of compute: total runtime
	// >= 15ms of compute plus overheads.
	if loEnd < engine.At(15*time.Millisecond) {
		t.Fatalf("lo finished at %v; preemption lost compute time", loEnd)
	}
}

func TestEqualPriorityFIFONoPreemption(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var order []string
	a := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "a", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(5 * time.Millisecond)
		order = append(order, "a")
	})
	b := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "b", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		order = append(order, "b")
	})
	a.Start()
	b.Start()
	oracle.Run(k)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("SCHED_FIFO order %v, want [a b]", order)
	}
}

func TestThreadsOnDifferentCPUsRunConcurrently(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var aEnd, bEnd engine.Time
	a := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "a", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(10 * time.Millisecond)
		aEnd = c.Now()
	})
	b := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "b", Priority: 50, CPU: 1}, func(c *oracle.TCB) {
		c.Compute(10 * time.Millisecond)
		bEnd = c.Now()
	})
	a.Start()
	b.Start()
	oracle.Run(k)
	if aEnd > engine.At(11*time.Millisecond) || bEnd > engine.At(11*time.Millisecond) {
		t.Fatalf("parallel threads serialized: a=%v b=%v", aEnd, bEnd)
	}
}

func TestSleepUntilWakesAtAbsoluteTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var woke engine.Time
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(100 * time.Millisecond))
		woke = c.Now()
	})
	th.Start()
	oracle.Run(k)
	if woke < engine.At(100*time.Millisecond) {
		t.Fatalf("woke at %v, before the absolute deadline", woke)
	}
	if woke > engine.At(101*time.Millisecond) {
		t.Fatalf("woke at %v, dispatch latency implausible", woke)
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var first, second engine.Time
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(5 * time.Millisecond)
		first = c.Now()
		c.SleepUntil(engine.At(time.Millisecond)) // already past
		second = c.Now()
	})
	th.Start()
	oracle.Run(k)
	if second != first {
		t.Fatalf("past sleep should be immediate: %v -> %v", first, second)
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	var consumerRan engine.Time
	consumer := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "consumer", Priority: 60, CPU: 1}, func(c *oracle.TCB) {
		c.CondWait(cv)
		consumerRan = c.Now()
	})
	producer := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "producer", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(10 * time.Millisecond)
		c.CondSignal(cv)
	})
	consumer.Start()
	producer.Start()
	oracle.Run(k)
	if consumerRan == 0 {
		t.Fatal("consumer never woke")
	}
	if consumerRan < engine.At(10*time.Millisecond) {
		t.Fatalf("consumer woke at %v, before the signal", consumerRan)
	}
}

func TestCondSignalWithoutWaiterIsLost(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	woke := false
	producer := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "p", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.CondSignal(cv) // nobody waiting; pthread semantics lose it
	})
	consumer := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "c", Priority: 50, CPU: 1}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(time.Millisecond))
		c.CondWait(cv)
		woke = true
	})
	producer.Start()
	consumer.Start()
	oracle.Run(k)
	if woke {
		t.Fatal("signal before wait must be lost")
	}
	if consumer.State() != kernel.StateExited {
		// The consumer is still blocked at shutdown, which is the expected
		// outcome; Shutdown force-unwound it.
		if consumer.State() != kernel.StateBlocked {
			t.Fatalf("consumer state %v", consumer.State())
		}
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	woken := 0
	for i := 0; i < 3; i++ {
		cpu := machine.HWThread(i + 1)
		th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "w", Priority: 60, CPU: cpu}, func(c *oracle.TCB) {
			c.CondWait(cv)
			woken++
		})
		th.Start()
	}
	p := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "p", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		c.CondBroadcast(cv)
	})
	p.Start()
	oracle.Run(k)
	if woken != 3 {
		t.Fatalf("broadcast woke %d, want 3", woken)
	}
}

func TestTimerTerminatesInterruptibleCompute(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	var ran time.Duration
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(5 * time.Millisecond))
		completed, ran = c.ComputeInterruptible(time.Second)
	})
	th.Start()
	oracle.Run(k)
	if completed {
		t.Fatal("burst should have been terminated")
	}
	if ran <= 0 || ran > 6*time.Millisecond {
		t.Fatalf("ran %v, want ~5ms", ran)
	}
}

func TestTimerDoesNotTerminateUninterruptibleCompute(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var end engine.Time
	var pending bool
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(time.Millisecond))
		c.Compute(10 * time.Millisecond)
		end, pending = c.Now(), c.AlarmPending()
	})
	th.Start()
	oracle.Run(k)
	if end < engine.At(10*time.Millisecond) {
		t.Fatalf("uninterruptible burst cut short at %v", end)
	}
	if !pending {
		t.Fatal("alarm should be pending after an uninterruptible burst")
	}
}

func TestTimerStopCancelsAndClearsPending(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(time.Hour))
		c.TimerStop()
		completed, _ = c.ComputeInterruptible(5 * time.Millisecond)
	})
	th.Start()
	oracle.Run(k)
	if !completed {
		t.Fatal("burst should complete after TimerStop")
	}
}

// The POSIX handler-entry semantics: after a SIGALRM termination the signal
// stays masked, and a second timer cannot terminate the next burst until the
// mask is cleared. This is the mechanism behind Table I's try/catch row.
func TestAlarmMaskedAfterTermination(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var second bool
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(2 * time.Millisecond))
		first, _ := c.ComputeInterruptible(time.Second)
		if first {
			t.Error("first burst should be terminated")
		}
		if !c.AlarmMasked() {
			t.Error("SIGALRM should be masked after handler entry")
		}
		// Arm again WITHOUT restoring the mask: the next burst must run to
		// completion because the signal stays blocked.
		c.TimerSet(c.Now().Add(2 * time.Millisecond))
		second, _ = c.ComputeInterruptible(10 * time.Millisecond)
	})
	th.Start()
	oracle.Run(k)
	if !second {
		t.Fatal("second burst should complete: SIGALRM was still masked")
	}
}

// Restoring the mask (as siglongjmp does) re-enables termination.
func TestAlarmUnmaskedTerminatesAgain(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var second bool
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(2 * time.Millisecond))
		c.ComputeInterruptible(time.Second)
		c.SetAlarmMask(false) // siglongjmp restores the mask
		c.TimerSet(c.Now().Add(2 * time.Millisecond))
		second, _ = c.ComputeInterruptible(10 * time.Second)
	})
	th.Start()
	oracle.Run(k)
	if second {
		t.Fatal("second burst should have been terminated after unmasking")
	}
}

// A pending alarm that arrives while masked is delivered as soon as an
// interruptible burst starts with the mask cleared.
func TestPendingAlarmDeliveredOnNextBurst(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	var ran time.Duration
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.SetAlarmMask(true)
		c.TimerSet(engine.At(time.Millisecond))
		c.Compute(5 * time.Millisecond) // alarm fires during this, stays pending
		c.SetAlarmMask(false)
		completed, ran = c.ComputeInterruptible(time.Second)
	})
	th.Start()
	oracle.Run(k)
	if completed {
		t.Fatal("pending alarm should terminate the burst immediately")
	}
	if ran != 0 {
		t.Fatalf("burst ran %v, want 0 (terminated at entry)", ran)
	}
}

// Preemption must preserve a terminated burst's consumed-time accounting.
func TestPreemptedInterruptibleBurstAccounting(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var ran time.Duration
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(20 * time.Millisecond))
		_, ran = c.ComputeInterruptible(time.Second)
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(5 * time.Millisecond))
		c.Compute(5 * time.Millisecond)
	})
	lo.Start()
	hi.Start()
	oracle.Run(k)
	// lo computed ~5ms before preemption, resumed ~10ms, terminated at
	// ~20ms: it consumed roughly 15ms of CPU, never 20.
	if ran < 12*time.Millisecond || ran > 18*time.Millisecond {
		t.Fatalf("terminated burst consumed %v, want ~15ms", ran)
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	tr := trace.New(trace.Config{CPUs: 1})
	k.SetTrace(tr)
	var kinds []trace.Kind
	tr.Tap(func(rec trace.Record) { kinds = append(kinds, rec.Kind) })
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
	})
	th.Start()
	oracle.Run(k)
	want := []trace.Kind{trace.KindReady, trace.KindDispatch, trace.KindExit}
	if len(kinds) != len(want) {
		t.Fatalf("trace %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace %v, want %v", kinds, want)
		}
	}
	if got := tr.Emitted(); got != uint64(len(want)) {
		t.Fatalf("Emitted() = %d, want %d", got, len(want))
	}
}

func TestNewThreadValidation(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	if _, err := oracle.NewThread(k, kernel.ThreadConfig{Priority: 0, CPU: 0}, func(*oracle.TCB) {}); err == nil {
		t.Fatal("priority 0 accepted")
	}
	if _, err := oracle.NewThread(k, kernel.ThreadConfig{Priority: 100, CPU: 0}, func(*oracle.TCB) {}); err == nil {
		t.Fatal("priority 100 accepted")
	}
	if _, err := oracle.NewThread(k, kernel.ThreadConfig{Priority: 50, CPU: 99}, func(*oracle.TCB) {}); err == nil {
		t.Fatal("out-of-range cpu accepted")
	}
}

func TestShutdownUnwindsBlockedThreads(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("never")
	cleanedUp := false
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		defer func() { cleanedUp = true }()
		c.CondWait(cv) // never signalled
	})
	th.Start()
	oracle.Run(k) // Run calls Shutdown when the event queue drains
	if th.State() != kernel.StateExited {
		t.Fatalf("state %v, want exited after shutdown", th.State())
	}
	if cleanedUp {
		// The oracle unwinds via panic, so deferred cleanup DOES run; assert
		// that it did.
		return
	}
	t.Fatal("deferred cleanup did not run during shutdown unwind")
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() engine.Time {
		k := testKernel(t, machine.CPUMemoryLoad)
		cv := k.NewCondVar("cv")
		for i := 0; i < 4; i++ {
			cpu := machine.HWThread(i % 8)
			prio := 40 + i
			th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "w", Priority: prio, CPU: cpu}, func(c *oracle.TCB) {
				c.Compute(time.Duration(prio) * time.Millisecond)
				c.CondSignal(cv)
			})
			th.Start()
		}
		m := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "m", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
			for i := 0; i < 4; i++ {
				c.CondWait(cv)
			}
		})
		m.Start()
		oracle.Run(k)
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
	}
}

func TestChargeOpConsumesTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after engine.Time
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		before = c.Now()
		c.ChargeOp(machine.OpSigLongjmp)
		after = c.Now()
	})
	th.Start()
	oracle.Run(k)
	if after <= before {
		t.Fatal("ChargeOp should consume virtual time")
	}
}
