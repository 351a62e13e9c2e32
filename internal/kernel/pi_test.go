package kernel_test

import (
	"testing"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/kernel/oracle"
	"rtseed/internal/machine"
)

// inversionScenario is the classic three-thread priority inversion: a
// low-priority thread takes the lock, a high-priority thread blocks on it,
// and a medium-priority CPU hog on the same processor preempts the
// low-priority holder. Without priority inheritance the hog runs for its
// full burst before the holder can release; with it, the holder is boosted
// above the hog and the high-priority thread's blocking stays bounded by
// the critical section.
func inversionScenario(t *testing.T, pi bool) (hiDone engine.Time) {
	t.Helper()
	k := testKernel(t, machine.NoLoad)
	var m *kernel.Mutex
	if pi {
		m = k.NewPIMutex("m")
	} else {
		m = k.NewMutex("m")
	}
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 40, CPU: 0}, func(c *oracle.TCB) {
		c.MutexLock(m)
		c.Compute(5 * time.Millisecond) // critical section
		c.MutexUnlock(m)
	})
	mid := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "mid", Priority: 50, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(2 * time.Millisecond))
		c.Compute(100 * time.Millisecond) // the hog
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 60, CPU: 0}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(1 * time.Millisecond))
		c.MutexLock(m)
		c.MutexUnlock(m)
		hiDone = c.Now()
	})
	lo.Start()
	mid.Start()
	hi.Start()
	oracle.Run(k)
	return hiDone
}

func TestPriorityInversionWithoutPI(t *testing.T) {
	done := inversionScenario(t, false)
	// hi cannot finish before the 100ms hog releases the CPU for lo.
	if done < engine.At(100*time.Millisecond) {
		t.Fatalf("hi finished at %v; expected unbounded inversion behind the hog", done)
	}
}

func TestPriorityInheritanceBoundsInversion(t *testing.T) {
	done := inversionScenario(t, true)
	// hi's blocking is bounded by lo's ~5ms critical section.
	if done > engine.At(10*time.Millisecond) {
		t.Fatalf("hi finished at %v; priority inheritance should bound blocking to the critical section", done)
	}
}

// The boosted owner returns to its base priority after unlock.
func TestPIBoostIsTemporary(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewPIMutex("m")
	var prioDuring, prioAfter int
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 40, CPU: 0}, func(c *oracle.TCB) {
		c.MutexLock(m)
		c.Compute(5 * time.Millisecond)
		prioDuring = c.Thread().Priority()
		c.MutexUnlock(m)
		prioAfter = c.Thread().Priority()
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 70, CPU: 1}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(time.Millisecond))
		c.MutexLock(m)
		c.MutexUnlock(m)
	})
	lo.Start()
	hi.Start()
	oracle.Run(k)
	if prioDuring != 70 {
		t.Fatalf("owner priority during contention %d, want boosted 70", prioDuring)
	}
	if prioAfter != 40 {
		t.Fatalf("owner priority after unlock %d, want base 40", prioAfter)
	}
}

// A plain mutex never boosts.
func TestPlainMutexNoBoost(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	m := k.NewMutex("m")
	var prioDuring int
	lo := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "lo", Priority: 40, CPU: 0}, func(c *oracle.TCB) {
		c.MutexLock(m)
		c.Compute(5 * time.Millisecond)
		prioDuring = c.Thread().Priority()
		c.MutexUnlock(m)
	})
	hi := oracle.MustNewThread(k, kernel.ThreadConfig{Name: "hi", Priority: 70, CPU: 1}, func(c *oracle.TCB) {
		c.SleepUntil(engine.At(time.Millisecond))
		c.MutexLock(m)
		c.MutexUnlock(m)
	})
	lo.Start()
	hi.Start()
	oracle.Run(k)
	if prioDuring != 40 {
		t.Fatalf("plain mutex boosted the owner to %d", prioDuring)
	}
}
