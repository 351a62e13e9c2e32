package kernel_test

import (
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
)

func TestMutexExcludesAndServesFIFO(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	var order []string
	var inside int
	worker := func(name string, cpu machine.HWThread, start time.Duration) {
		th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: name, Priority: 50, CPU: cpu}, func(c *oracle.TCB) {
			c.SleepUntil(engine.At(start))
			c.MutexLock(m)
			inside++
			if inside != 1 {
				t.Errorf("%s: mutual exclusion violated", name)
			}
			c.Compute(10 * time.Millisecond)
			order = append(order, name)
			inside--
			c.MutexUnlock(m)
		})
		th.Start()
	}
	// a grabs the lock first; b and c queue in arrival order.
	worker("a", 0, 0)
	worker("b", 1, time.Millisecond)
	worker("c", 2, 2*time.Millisecond)
	oracle.Run(k)
	want := []string{"a", "b", "c"}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order %v, want %v", order, want)
		}
	}
	if m.Locked() || m.Waiters() != 0 {
		t.Fatal("mutex should be free at the end")
	}
}

// np contenders serialize: total time is np x critical-section length.
func TestMutexSerializesWork(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	const np = 6
	const section = 10 * time.Millisecond
	var last engine.Time
	for i := 0; i < np; i++ {
		cpu := machine.HWThread(i % 8)
		th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "w", Priority: 50, CPU: cpu}, func(c *oracle.TCB) {
			c.MutexLock(m)
			c.Compute(section)
			c.MutexUnlock(m)
			if c.Now() > last {
				last = c.Now()
			}
		})
		th.Start()
	}
	oracle.Run(k)
	if last < engine.At(np*section) {
		t.Fatalf("finished at %v: critical sections overlapped", last)
	}
	if last > engine.At(np*section+5*time.Millisecond) {
		t.Fatalf("finished at %v: serialization overhead implausible", last)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	owner := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "owner", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.MutexLock(m)
		c.Sleep(time.Hour)
	})
	thief := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "thief", Priority: 50, CPU: 1}, func(c *oracle.TCB) {
		c.Sleep(time.Millisecond)
		c.MutexUnlock(m)
	})
	owner.Start()
	thief.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-owner should panic")
		}
		oracle.Shutdown(k) // unwind the scripts the panic left parked
	}()
	oracle.Run(k)
}

func TestMutexRecursiveLockPanics(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.MutexLock(m)
		c.MutexLock(m)
	})
	th.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("recursive lock should panic")
		}
		oracle.Shutdown(k) // unwind the scripts the panic left parked
	}()
	oracle.Run(k)
}

func TestMutexName(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	if k.NewMutex("end").Name() != "end" {
		t.Fatal("name lost")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(20 * time.Millisecond)
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(5 * time.Millisecond))
		c.Compute(10 * time.Millisecond)
	})
	lo.Start()
	hi.Start()
	oracle.Run(k)
	// Each thread's CPU time equals its requested compute, despite the
	// preemption in the middle of lo's burst.
	if got := lo.CPUTime(); got != 20*time.Millisecond {
		t.Fatalf("lo CPU time %v, want 20ms", got)
	}
	if got := hi.CPUTime(); got != 10*time.Millisecond {
		t.Fatalf("hi CPU time %v, want 10ms", got)
	}
	// CPU 0 utilization over the run is dominated by the 30ms of compute
	// plus switch/dispatch services.
	u := k.Utilization(0, engine.At(0))
	if u < 0.9 || u > 1.0 {
		t.Fatalf("cpu0 utilization %v, want ~0.95+", u)
	}
	if k.Utilization(1, engine.At(0)) != 0 {
		t.Fatal("idle cpu should have zero utilization")
	}
	if k.Utilization(0, k.Now()) != 0 {
		t.Fatal("zero span should report zero utilization")
	}
}

func TestInterruptedBurstCPUTime(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.TimerSet(engine.At(5 * time.Millisecond))
		c.ComputeInterruptible(time.Second)
	})
	th.Start()
	oracle.Run(k)
	got := th.CPUTime()
	if got < 4*time.Millisecond || got > 6*time.Millisecond {
		t.Fatalf("terminated burst CPU time %v, want ~5ms", got)
	}
}

func TestMigrateMovesThread(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var cpuBefore, cpuAfter machine.HWThread
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "m", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		cpuBefore = c.HWThread()
		c.Migrate(3)
		cpuAfter = c.HWThread()
		c.Compute(time.Millisecond)
	})
	th.Start()
	oracle.Run(k)
	if cpuBefore != 0 || cpuAfter != 3 {
		t.Fatalf("migration %d -> %d, want 0 -> 3", cpuBefore, cpuAfter)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations %d, want 1", th.Migrations())
	}
	if th.CPU() != 3 {
		t.Fatalf("thread CPU %d, want 3", th.CPU())
	}
}

func TestMigrateToSameCPUIsFree(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var before, after engine.Time
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "m", Priority: 50, CPU: 2}, func(c *oracle.TCB) {
		before = c.Now()
		c.Migrate(2)
		after = c.Now()
	})
	th.Start()
	oracle.Run(k)
	if before != after {
		t.Fatal("same-CPU migration should be a no-op")
	}
	if th.Migrations() != 0 {
		t.Fatal("same-CPU migration must not count")
	}
}

func TestMigrateCostsMoreThanLocalSwitch(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var migrateCost time.Duration
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "m", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		start := c.Now()
		c.Migrate(1)
		migrateCost = c.Now().Sub(start)
	})
	th.Start()
	oracle.Run(k)
	// Migration = departure service (remote switch) + arrival dispatch;
	// it must exceed a plain local context switch cost.
	local := k.Machine().Cost(machine.OpContextSwitch, 0)
	if migrateCost <= local {
		t.Fatalf("migration cost %v should exceed a local switch %v", migrateCost, local)
	}
}

func TestMigrationFreesOldCPU(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var waiterRan bool
	mover := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "mover", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
		c.Migrate(1)
		c.Compute(50 * time.Millisecond)
	})
	waiter := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "waiter", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		waiterRan = true
	})
	mover.Start()
	waiter.Start()
	oracle.Run(k)
	if !waiterRan {
		t.Fatal("old CPU should run the lower-priority thread after the migration")
	}
}

// sched_yield: the caller moves behind an equal-priority ready thread.
func TestYieldRotatesEqualPriority(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	var order []string
	a := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "a", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		c.Yield() // b gets the CPU before a's second burst
		c.Compute(time.Millisecond)
		order = append(order, "a")
	})
	b := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "b", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Compute(time.Millisecond)
		order = append(order, "b")
	})
	a.Start()
	b.Start()
	oracle.Run(k)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order %v, want [b a]", order)
	}
}

// Yield with an empty queue just continues.
func TestYieldAloneContinues(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	done := false
	th := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "t", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.Yield()
		c.Compute(time.Millisecond)
		done = true
	})
	th.Start()
	oracle.Run(k)
	if !done {
		t.Fatal("yield alone should continue")
	}
}
