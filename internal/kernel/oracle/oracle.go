// Package oracle runs blocking thread scripts on the simulated kernel: a
// script is an ordinary Go function that calls c.Compute, c.CondWait,
// c.MutexLock and friends in sequence, and the oracle adapts it into a
// kernel.Body on the kernel's one (continuation) executor.
//
// It exists for verification, not for production use. A blocking script is
// the simplest possible statement of a thread's program, so the executor
// differentials (the kernel's TestBodyVsGoroutineIdenticalTrace and the
// sched package's FuzzBodyVsGoroutine) run each program once as a
// hand-written continuation and once as a script here, and require
// byte-identical traces. Tests whose scenario reads better as a script use
// it too.
//
// Each script runs on its own goroutine, hand-shaken with the kernel's
// dispatch path: Step hands the previous action's outcome to the parked
// script and returns the next action the script issues, so exactly one of
// the two runs at a time and simulations stay deterministic. The wrappers
// keep the blocking API's own semantics on the script side rather than
// leaning on the kernel's: a Compute or ComputeInterruptible of d <= 0 and
// a Migrate to the current CPU return without issuing an action, and Sleep
// resolves to SleepUntil(Now()+d) at call time. That keeps the oracle
// independent of the shortcuts kernel.applyNext takes for the same cases,
// which is what lets the differentials check them.
//
// A script still parked in a kernel call when its kernel stops is unwound
// by Run or Shutdown, which run its deferred calls and leave no goroutine
// behind. No production package may import this one.
package oracle

import (
	"sync"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
)

// TCB is the blocking kernel API available to a script. Every method must
// be called from the script's own goroutine; each blocking one suspends the
// thread in virtual time exactly as the kernel action of the same name.
type TCB struct {
	script func(*TCB)

	// The handshake with the kernel. wake resumes the parked script after
	// its action completed (closed to unwind it), next carries the script's
	// next action to Step, and done is closed when the script goroutine
	// ends. started and finished are touched only while the other side is
	// parked, so the channel operations order every access.
	wake     chan struct{}
	next     chan kernel.Next
	done     chan struct{}
	started  bool
	finished bool

	// The thread's kernel view and the previous action's outcome, copied in
	// at each Step before the script runs. Nothing changes while the script
	// runs (the kernel is parked in Step), so the copy is the live state.
	thread    *kernel.Thread
	now       engine.Time
	cpu       machine.HWThread
	masked    bool
	pending   bool
	completed bool
	ran       time.Duration
}

// unwound is the panic value that unwinds a parked script at shutdown.
type unwound struct{}

// registry maps each kernel to the scripts created on it, so Run and
// Shutdown can unwind the ones still parked. The kernel has no shutdown
// hook to hang them on (it needs none for its own bodies), and keying by
// kernel keeps tests that run in parallel out of each other's scripts.
var registry struct {
	sync.Mutex
	scripts map[*kernel.Kernel][]*TCB
}

// NewThread creates a simulated thread whose body is the blocking script.
// The script starts when the thread is first dispatched, and the thread
// exits when the script returns. It returns kernel.NewBodyThread's errors
// for out-of-range configuration.
func NewThread(k *kernel.Kernel, cfg kernel.ThreadConfig, script func(*TCB)) (*kernel.Thread, error) {
	c := &TCB{
		script: script,
		wake:   make(chan struct{}),
		next:   make(chan kernel.Next),
		done:   make(chan struct{}),
	}
	th, err := k.NewBodyThread(cfg, body{c})
	if err != nil {
		return nil, err
	}
	registry.Lock()
	if registry.scripts == nil {
		registry.scripts = map[*kernel.Kernel][]*TCB{}
	}
	registry.scripts[k] = append(registry.scripts[k], c)
	registry.Unlock()
	return th, nil
}

// MustNewThread is NewThread for statically-valid configuration.
func MustNewThread(k *kernel.Kernel, cfg kernel.ThreadConfig, script func(*TCB)) *kernel.Thread {
	th, err := NewThread(k, cfg, script)
	if err != nil {
		panic(err)
	}
	return th
}

// Run is kernel.Run followed by unwinding every script k left parked.
func Run(k *kernel.Kernel) {
	k.Run()
	unwind(k)
}

// Shutdown is kernel.Shutdown followed by unwinding every script k left
// parked; use it where the test drives the engine itself.
func Shutdown(k *kernel.Kernel) {
	k.Shutdown()
	unwind(k)
}

// unwind releases k's scripts: a parked one panics out of its kernel call
// (running its deferred calls), and every started goroutine is waited for.
func unwind(k *kernel.Kernel) {
	registry.Lock()
	scripts := registry.scripts[k]
	delete(registry.scripts, k)
	registry.Unlock()
	for _, c := range scripts {
		if !c.started {
			continue
		}
		if !c.finished {
			close(c.wake)
		}
		<-c.done
	}
}

// body adapts a script to kernel.Body. It is a separate type so the Step
// method stays out of the script's API.
type body struct{ c *TCB }

// Step copies the thread's view into the script's TCB, resumes the script
// (starting it on the first step), and returns the action it issues next.
//
//rtseed:kernelctx
func (b body) Step(kc *kernel.TCB, r kernel.Resume) kernel.Next {
	c := b.c
	c.thread, c.now, c.cpu = kc.Thread(), kc.Now(), kc.HWThread()
	c.masked, c.pending = kc.AlarmMasked(), kc.AlarmPending()
	c.completed, c.ran = r.Completed, r.Ran
	if r.First {
		c.started = true
		go c.main()
	} else {
		c.wake <- struct{}{}
	}
	return <-c.next
}

// main is the script goroutine: run the script, then report the exit.
func (c *TCB) main() {
	defer close(c.done)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unwound); !ok {
				panic(r)
			}
		}
	}()
	c.script(c)
	c.finished = true
	c.next <- kernel.Done()
}

// call issues one action and parks the script until the kernel resumes it.
func (c *TCB) call(n kernel.Next) {
	c.next <- n
	if _, ok := <-c.wake; !ok {
		panic(unwound{})
	}
}

// Thread returns the thread the script runs on.
func (c *TCB) Thread() *kernel.Thread { return c.thread }

// Now returns the current virtual time.
func (c *TCB) Now() engine.Time { return c.now }

// HWThread returns the hardware thread the caller is pinned to.
func (c *TCB) HWThread() machine.HWThread { return c.cpu }

// AlarmMasked reports whether SIGALRM is currently blocked.
func (c *TCB) AlarmMasked() bool { return c.masked }

// AlarmPending reports whether a SIGALRM is pending, undelivered.
func (c *TCB) AlarmPending() bool { return c.pending }

// Compute burns d of CPU time (kernel.Compute); d <= 0 returns at once.
func (c *TCB) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	c.call(kernel.Compute(d))
}

// ComputeInterruptible burns up to d of CPU time, terminated early by
// SIGALRM (kernel.ComputeInterruptible), and reports whether the burst
// completed and the CPU time it consumed; d <= 0 returns (true, 0) at once.
func (c *TCB) ComputeInterruptible(d time.Duration) (completed bool, ran time.Duration) {
	if d <= 0 {
		return true, 0
	}
	c.call(kernel.ComputeInterruptible(d))
	return c.completed, c.ran
}

// SleepUntil blocks until the absolute virtual time at (kernel.SleepUntil).
func (c *TCB) SleepUntil(at engine.Time) { c.call(kernel.SleepUntil(at)) }

// Sleep blocks for d, measured from the call.
func (c *TCB) Sleep(d time.Duration) { c.SleepUntil(c.Now().Add(d)) }

// CondWait blocks on cv until signalled (kernel.CondWait).
func (c *TCB) CondWait(cv *kernel.CondVar) { c.call(kernel.CondWait(cv)) }

// CondSignal wakes the longest-waiting thread blocked on cv
// (kernel.CondSignal).
func (c *TCB) CondSignal(cv *kernel.CondVar) { c.call(kernel.CondSignal(cv)) }

// CondBroadcast wakes every thread blocked on cv (kernel.CondBroadcast).
func (c *TCB) CondBroadcast(cv *kernel.CondVar) { c.call(kernel.CondBroadcast(cv)) }

// TimerSet arms the thread's one-shot SIGALRM timer at absolute time at
// (kernel.TimerSet).
func (c *TCB) TimerSet(at engine.Time) { c.call(kernel.TimerSet(at)) }

// TimerStop disarms the timer and discards a pending SIGALRM
// (kernel.TimerStop).
func (c *TCB) TimerStop() { c.call(kernel.TimerStop()) }

// SetAlarmMask blocks (true) or unblocks (false) SIGALRM
// (kernel.SetAlarmMask).
func (c *TCB) SetAlarmMask(masked bool) { c.call(kernel.SetAlarmMask(masked)) }

// Yield relinquishes the CPU to the back of the caller's priority level
// (kernel.Yield).
func (c *TCB) Yield() { c.call(kernel.Yield()) }

// ChargeOp burns the cost of one machine primitive (kernel.ChargeOp).
func (c *TCB) ChargeOp(op machine.Op) { c.call(kernel.ChargeOp(op)) }

// ChargeOpRemote burns the cost of op directed at hardware thread to
// (kernel.ChargeOpRemote).
func (c *TCB) ChargeOpRemote(op machine.Op, to machine.HWThread) {
	c.call(kernel.ChargeOpRemote(op, to))
}

// MutexLock acquires m, blocking in FIFO order while it is held
// (kernel.MutexLock).
func (c *TCB) MutexLock(m *kernel.Mutex) { c.call(kernel.MutexLock(m)) }

// MutexUnlock releases m (kernel.MutexUnlock).
func (c *TCB) MutexUnlock(m *kernel.Mutex) { c.call(kernel.MutexUnlock(m)) }

// Migrate re-pins the calling thread to cpu (kernel.Migrate); migrating to
// the current CPU returns at once.
func (c *TCB) Migrate(cpu machine.HWThread) {
	if cpu == c.HWThread() {
		return
	}
	c.call(kernel.Migrate(cpu))
}
