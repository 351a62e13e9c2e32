package kernel_test

import (
	"testing"
	"time"

	"rtseed/internal/kernel"
	"rtseed/internal/machine"
)

// pingBody is one job per loop: a SIGALRM-terminated interruptible burst,
// a timer armed and disarmed, a charged primitive, an uncontended mutex
// round trip, and a condvar ping-pong with pongBody. It is a plain state
// machine, so the body itself allocates nothing.
type pingBody struct {
	ping, pong  *kernel.CondVar
	m           *kernel.Mutex
	pc          int
	jobs        int
	interrupted int
}

func (b *pingBody) Step(c *kernel.TCB, r kernel.Resume) kernel.Next {
	pc := b.pc
	b.pc = (b.pc + 1) % 10
	switch pc {
	case 0:
		b.jobs++
		return kernel.TimerSet(c.Now().Add(10 * time.Microsecond))
	case 1:
		return kernel.ComputeInterruptible(time.Millisecond)
	case 2:
		if !r.Completed {
			b.interrupted++
		}
		return kernel.SetAlarmMask(false)
	case 3:
		return kernel.TimerSet(c.Now().Add(time.Second))
	case 4:
		return kernel.TimerStop()
	case 5:
		return kernel.ChargeOp(machine.OpSigSetjmp)
	case 6:
		return kernel.MutexLock(b.m)
	case 7:
		return kernel.MutexUnlock(b.m)
	case 8:
		return kernel.CondSignal(b.pong)
	default:
		return kernel.CondWait(b.ping)
	}
}

// pongBody answers every ping after its own mutex round trip on the same
// CPU.
type pongBody struct {
	ping, pong *kernel.CondVar
	m          *kernel.Mutex
	pc         int
}

func (b *pongBody) Step(*kernel.TCB, kernel.Resume) kernel.Next {
	pc := b.pc
	b.pc = (b.pc + 1) % 4
	switch pc {
	case 0:
		return kernel.CondWait(b.pong)
	case 1:
		return kernel.MutexLock(b.m)
	case 2:
		return kernel.MutexUnlock(b.m)
	default:
		return kernel.CondSignal(b.ping)
	}
}

// TestServicePathZeroAlloc runs the kernel's costed services — condvar
// wait/signal, timer set/stop, SIGALRM termination, ChargeOp — and the
// mutex paths at run time and requires a steady-state job to allocate
// nothing. The noalloc analyzer checks these paths statically; this pins
// the compiled result.
func TestServicePathZeroAlloc(t *testing.T) {
	k := testKernel(t, machine.NoLoad)
	ping, pong := k.NewCondVar("ping"), k.NewCondVar("pong")
	m := k.NewMutex("m")
	pinger := &pingBody{ping: ping, pong: pong, m: m}
	// The ponger outranks the pinger so it is parked in CondWait before the
	// first ping; both share CPU 0.
	k.MustNewBodyThread(kernel.ThreadConfig{Name: "pong", Priority: 60, CPU: 0}, &pongBody{ping: ping, pong: pong, m: m}).Start()
	k.MustNewBodyThread(kernel.ThreadConfig{Name: "ping", Priority: 50, CPU: 0}, pinger).Start()
	eng := k.Engine()
	stalled := false
	job := func() {
		for start := pinger.jobs; pinger.jobs == start; {
			if !eng.Step() {
				stalled = true
				return
			}
		}
	}
	for i := 0; i < 100; i++ { // warm the engine's node pool
		job()
	}
	allocs := testing.AllocsPerRun(500, job)
	if stalled {
		t.Fatal("ping-pong stalled: the engine ran out of events")
	}
	if allocs != 0 {
		t.Fatalf("steady-state service-path job allocates %.2f times, want 0", allocs)
	}
	if pinger.interrupted < pinger.jobs-1 {
		t.Fatalf("%d of %d jobs had their burst terminated by SIGALRM, want all", pinger.interrupted, pinger.jobs)
	}
	if ping.Waiters()+pong.Waiters() != 1 || m.Locked() {
		t.Fatalf("after the run: %d+%d condvar waiters (want 1), mutex locked %v", ping.Waiters(), pong.Waiters(), m.Locked())
	}
	k.Shutdown()
}
