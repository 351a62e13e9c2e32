package kernel_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// seq is a test helper: a continuation body that runs a fixed sequence of
// steps, one kernel action each, then exits. It makes porting a blocking
// test script mechanical — each blocking call becomes one element.
type seq struct {
	steps []func(c *kernel.TCB, r kernel.Resume) kernel.Next
	i     int
}

func (s *seq) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	if s.i >= len(s.steps) {
		return kernel.Done()
	}
	f := s.steps[s.i]
	s.i++
	return f(c, r)
}

// act adapts a bare action to a seq step.
func act(n kernel.Next) func(*kernel.TCB, kernel.Resume) kernel.Next {
	return func(*kernel.TCB, kernel.Resume) kernel.Next { return n }
}

func TestBodyThreadRunsToExit(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ran := false
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.Compute(time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			ran = r.Completed
			return kernel.Done()
		},
	}})
	th.Start()
	k.Run()
	if !ran {
		t.Fatal("continuation body did not run to the post-compute step")
	}
	if th.State() != kernel.StateExited {
		t.Fatalf("state %v, want exited", th.State())
	}
}

func TestBodyComputeAdvancesVirtualTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var end engine.Time
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.Compute(10 * time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			end = c.Now()
			return kernel.Done()
		},
	}})
	th.Start()
	k.Run()
	if end < engine.At(10*time.Millisecond) || end > engine.At(11*time.Millisecond) {
		t.Fatalf("end %v, want 10ms + dispatch overhead", end)
	}
}

func TestBodyHigherPriorityPreempts(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var loEnd, hiEnd engine.Time
	lo := k.MustNewBodyThread(kernel.ThreadConfig{Name: "lo", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.Compute(10 * time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			loEnd = c.Now()
			return kernel.Done()
		},
	}})
	hi := k.MustNewBodyThread(kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.SleepUntil(engine.At(2 * time.Millisecond))),
		act(kernel.Compute(5 * time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			hiEnd = c.Now()
			return kernel.Done()
		},
	}})
	lo.Start()
	hi.Start()
	k.Run()
	if hiEnd >= loEnd {
		t.Fatalf("high-priority thread should finish first: hi=%v lo=%v", hiEnd, loEnd)
	}
	if loEnd < engine.At(15*time.Millisecond) {
		t.Fatalf("lo finished at %v; preemption lost compute time", loEnd)
	}
}

func TestBodyEqualPriorityFIFO(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var order []string
	mk := func(name string, d time.Duration) *kernel.Thread {
		return k.MustNewBodyThread(kernel.ThreadConfig{Name: name, Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
			act(kernel.Compute(d)),
			func(c *kernel.TCB, r kernel.Resume) kernel.Next {
				order = append(order, name)
				return kernel.Done()
			},
		}})
	}
	a := mk("a", 5*time.Millisecond)
	b := mk("b", time.Millisecond)
	a.Start()
	b.Start()
	k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("SCHED_FIFO order %v, want [a b]", order)
	}
}

func TestBodyCondVarHandshake(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	cv := k.NewCondVar("cv")
	got := false
	consumer := k.MustNewBodyThread(kernel.ThreadConfig{Name: "c", Priority: 60, CPU: 1}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.CondWait(cv)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			got = true
			return kernel.Done()
		},
	}})
	producer := k.MustNewBodyThread(kernel.ThreadConfig{Name: "p", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.Compute(time.Millisecond)),
		act(kernel.CondSignal(cv)),
	}})
	consumer.Start()
	producer.Start()
	k.Run()
	if !got {
		t.Fatal("consumer never woke from CondWait")
	}
}

func TestBodyMutexSerializes(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	mu := k.NewMutex("mu")
	var order []string
	mk := func(name string, cpu machine.HWThread) *kernel.Thread {
		return k.MustNewBodyThread(kernel.ThreadConfig{Name: name, Priority: 50, CPU: cpu}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
			act(kernel.MutexLock(mu)),
			act(kernel.Compute(2 * time.Millisecond)),
			func(c *kernel.TCB, r kernel.Resume) kernel.Next {
				order = append(order, name)
				return kernel.MutexUnlock(mu)
			},
		}})
	}
	a := mk("a", 0)
	b := mk("b", 1)
	a.Start()
	b.Start()
	k.Run()
	if len(order) != 2 {
		t.Fatalf("order %v, want both threads through the critical section", order)
	}
	if mu.Locked() {
		t.Fatal("mutex still held after run")
	}
}

// TestBodyTimerTerminatesInterruptibleBurst is the sigjmp-termination shape
// as a hand-written body: arm the one-shot timer, start an
// interruptible burst, and observe the termination through Resume.
func TestBodyTimerTerminatesInterruptibleBurst(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var completed bool
	var ran time.Duration
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			return kernel.TimerSet(c.Now().Add(5 * time.Millisecond))
		},
		act(kernel.ComputeInterruptible(50 * time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			completed, ran = r.Completed, r.Ran
			return kernel.SetAlarmMask(false)
		},
	}})
	th.Start()
	k.Run()
	if completed {
		t.Fatal("burst should have been terminated by the timer")
	}
	if ran <= 0 || ran >= 50*time.Millisecond {
		t.Fatalf("ran %v, want a partial burst", ran)
	}
}

func TestBodyRelativeSleepResolvesAtExecution(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var afterCompute, woke engine.Time
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		act(kernel.Compute(3 * time.Millisecond)),
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			afterCompute = c.Now()
			return kernel.Sleep(7 * time.Millisecond)
		},
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			woke = c.Now()
			return kernel.Done()
		},
	}})
	th.Start()
	k.Run()
	if want := afterCompute.Add(7 * time.Millisecond); woke < want {
		t.Fatalf("woke at %v, want >= %v (sleep must be relative to its execution instant)", woke, want)
	}
}

func TestBodyMigrateMovesThread(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after machine.HWThread
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			before = c.HWThread()
			return kernel.Migrate(3)
		},
		func(c *kernel.TCB, r kernel.Resume) kernel.Next {
			after = c.HWThread()
			return kernel.Compute(time.Millisecond)
		},
	}})
	th.Start()
	k.Run()
	if before != 0 || after != 3 {
		t.Fatalf("migrate moved %d -> %d, want 0 -> 3", before, after)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations %d, want 1", th.Migrations())
	}
}

// TestBodyImmediateActionsTrampoline drives a long chain of actions that
// resolve without suspending the thread — zero-length computes, same-CPU
// migrations, mask toggles, sleeps already in the past. The trampoline in
// stepThread must flatten the chain instead of recursing, so the run
// completes without growing the stack with the body's program length.
func TestBodyImmediateActionsTrampoline(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	const rounds = 200000
	n := 0
	body := kernel.StepFunc(func(c *kernel.TCB, r kernel.Resume) kernel.Next {
		n++
		switch {
		case n > rounds:
			return kernel.Done()
		case n%4 == 0:
			return kernel.Compute(0)
		case n%4 == 1:
			return kernel.Migrate(c.HWThread())
		case n%4 == 2:
			return kernel.SetAlarmMask(n%8 == 2)
		default:
			return kernel.SleepUntil(engine.At(0))
		}
	})
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, body)
	th.Start()
	k.Run()
	if n <= rounds {
		t.Fatalf("body stepped %d times, want > %d", n, rounds)
	}
}

func TestBodyZeroNextPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	th := k.MustNewBodyThread(kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0},
		kernel.StepFunc(func(c *kernel.TCB, r kernel.Resume) kernel.Next { return kernel.Next{} }))
	th.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("zero Next must panic")
		}
	}()
	k.Run()
}

func TestNewBodyThreadValidation(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ok := kernel.StepFunc(func(c *kernel.TCB, r kernel.Resume) kernel.Next { return kernel.Done() })
	if _, err := k.NewBodyThread(kernel.ThreadConfig{Priority: 0, CPU: 0}, ok); err == nil {
		t.Fatal("priority 0 must be rejected")
	}
	if _, err := k.NewBodyThread(kernel.ThreadConfig{Priority: 100, CPU: 0}, ok); err == nil {
		t.Fatal("priority 100 must be rejected")
	}
	if _, err := k.NewBodyThread(kernel.ThreadConfig{Priority: 50, CPU: 99}, ok); err == nil {
		t.Fatal("out-of-topology CPU must be rejected")
	}
	if _, err := k.NewBodyThread(kernel.ThreadConfig{Priority: 50, CPU: 0}, nil); err == nil {
		t.Fatal("nil body must be rejected")
	}
}

// TestShutdownLeavesNoGoroutines is the leak check for both body forms:
// after the run, no goroutine created for a simulated thread may remain —
// continuation bodies never create one, and oracle.Run unwinds the scripts
// still parked in a kernel call.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	for _, mode := range []string{"continuation", "goroutine", "mixed"} {
		t.Run(mode, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := testKernel(t, machine.NoLoad)
			cv := k.NewCondVar("never")
			for i := 0; i < 16; i++ {
				cfg := kernel.ThreadConfig{Name: "t", Priority: 50, CPU: machine.HWThread(i % 8)}
				goroutineForm := mode == "goroutine" || (mode == "mixed" && i%2 == 1)
				if i%4 == 0 {
					// Parked forever on a condition variable: unwound only
					// by Shutdown.
					if goroutineForm {
						oracle.MustNewThread(k, cfg, func(c *oracle.TCB) { c.CondWait(cv) }).Start()
					} else {
						k.MustNewBodyThread(cfg, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
							act(kernel.CondWait(cv)),
						}}).Start()
					}
					continue
				}
				if goroutineForm {
					oracle.MustNewThread(k, cfg, func(c *oracle.TCB) { c.Compute(time.Millisecond) }).Start()
				} else {
					k.MustNewBodyThread(cfg, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
						act(kernel.Compute(time.Millisecond)),
					}}).Start()
				}
			}
			oracle.Run(k)
			for _, th := range k.Threads() {
				if th.State() != kernel.StateExited {
					t.Fatalf("thread %v still %v after shutdown", th, th.State())
				}
			}
			// Goroutine teardown after the unwinder's done-channel receive
			// is asynchronous by a scheduler tick; poll briefly.
			deadline := time.Now().Add(2 * time.Second)
			for {
				runtime.Gosched()
				if runtime.NumGoroutine() <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestBodyVsGoroutineIdenticalTrace runs one mixed scenario — sleeps,
// computes, an interruptible burst with a timer, condvar traffic, a mutex
// section, a yield and a migration — once as continuation bodies and once as
// oracle scripts, and requires
// byte-identical trace files. The sched package fuzzes the same property
// over random task sets (FuzzBodyVsGoroutine); this is the deterministic
// in-kernel anchor. The tail of m's program pins what the many-task bodies
// never issue: a relative Sleep (resolved when the action executes), the
// degenerate actions the continuation path short-circuits — Compute(0),
// ComputeInterruptible(0) and a Migrate to the current CPU — and a
// Compute(0) issued while a higher-priority thread h is ready on m's CPU,
// where a missing short-circuit would yield the CPU early.
func TestBodyVsGoroutineIdenticalTrace(t *testing.T) {
	run := func(continuation bool) []byte {
		model := machine.DefaultCostModel()
		model.JitterFrac = 0
		m, err := machine.New(machine.Topology{Cores: 4, ThreadsPerCore: 2}, machine.NoLoad, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(engine.New(), m)
		var buf bytes.Buffer
		k.SetTrace(trace.New(trace.Config{CPUs: m.Topology().NumHWThreads(), Sink: &buf}))
		cv := k.NewCondVar("cv")
		hcv := k.NewCondVar("hcv")
		mu := k.NewMutex("mu")

		if continuation {
			k.MustNewBodyThread(kernel.ThreadConfig{Name: "w", Priority: 60, CPU: 1}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
				act(kernel.CondWait(cv)),
				act(kernel.MutexLock(mu)),
				act(kernel.Compute(2 * time.Millisecond)),
				act(kernel.MutexUnlock(mu)),
			}}).Start()
			k.MustNewBodyThread(kernel.ThreadConfig{Name: "m", Priority: 50, CPU: 0}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
				act(kernel.SleepUntil(engine.At(time.Millisecond))),
				act(kernel.MutexLock(mu)),
				act(kernel.CondSignal(cv)),
				act(kernel.Compute(time.Millisecond)),
				act(kernel.MutexUnlock(mu)),
				func(c *kernel.TCB, r kernel.Resume) kernel.Next {
					return kernel.TimerSet(c.Now().Add(time.Millisecond))
				},
				act(kernel.ComputeInterruptible(10 * time.Millisecond)),
				act(kernel.SetAlarmMask(false)),
				act(kernel.Yield()),
				act(kernel.Migrate(2)),
				act(kernel.Compute(time.Millisecond)),
				act(kernel.Sleep(time.Millisecond)),
				act(kernel.Compute(0)),
				act(kernel.ComputeInterruptible(0)),
				act(kernel.Migrate(2)),
				act(kernel.Compute(time.Millisecond)),
				act(kernel.CondSignal(hcv)),
				act(kernel.Compute(0)),
				act(kernel.ChargeOp(machine.OpSigSetjmp)),
				act(kernel.Compute(time.Millisecond)),
			}}).Start()
			k.MustNewBodyThread(kernel.ThreadConfig{Name: "h", Priority: 70, CPU: 2}, &seq{steps: []func(*kernel.TCB, kernel.Resume) kernel.Next{
				act(kernel.CondWait(hcv)),
				act(kernel.Compute(time.Millisecond)),
			}}).Start()
		} else {
			oracle.MustNewThread(k, kernel.ThreadConfig{Name: "w", Priority: 60, CPU: 1}, func(c *oracle.TCB) {
				c.CondWait(cv)
				c.MutexLock(mu)
				c.Compute(2 * time.Millisecond)
				c.MutexUnlock(mu)
			}).Start()
			oracle.MustNewThread(k, kernel.ThreadConfig{Name: "m", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
				c.SleepUntil(engine.At(time.Millisecond))
				c.MutexLock(mu)
				c.CondSignal(cv)
				c.Compute(time.Millisecond)
				c.MutexUnlock(mu)
				c.TimerSet(c.Now().Add(time.Millisecond))
				c.ComputeInterruptible(10 * time.Millisecond)
				c.SetAlarmMask(false)
				c.Yield()
				c.Migrate(2)
				c.Compute(time.Millisecond)
				c.Sleep(time.Millisecond)
				c.Compute(0)
				c.ComputeInterruptible(0)
				c.Migrate(2)
				c.Compute(time.Millisecond)
				c.CondSignal(hcv)
				c.Compute(0)
				c.ChargeOp(machine.OpSigSetjmp)
				c.Compute(time.Millisecond)
			}).Start()
			oracle.MustNewThread(k, kernel.ThreadConfig{Name: "h", Priority: 70, CPU: 2}, func(c *oracle.TCB) {
				c.CondWait(hcv)
				c.Compute(time.Millisecond)
			}).Start()
		}
		oracle.Run(k)
		if err := k.Trace().Close(k.ThreadInfos()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cont := run(true)
	gor := run(false)
	if !bytes.Equal(cont, gor) {
		t.Fatalf("trace bytes differ between the body forms: continuation %d bytes, oracle script %d bytes", len(cont), len(gor))
	}
}
