package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// This file is the kernel's task executor: thread bodies as resumable state
// machines driven inline by the kernel's dispatch path. A context switch is
// a plain function call into Body.Step, so the per-event cost is the
// scheduling work itself and n=100k+ thread simulations need no goroutines
// at all. The kernel/oracle package runs blocking test scripts through the
// same interface; the differential tests hold the two forms of a program to
// byte-identical traces.

// Body is a resumable task body. The kernel calls Step every time the
// thread would run host code: Step performs any amount of host work
// (bookkeeping, callbacks — all of it consumes no virtual time) and returns
// the next kernel action as a Next. The kernel executes the action,
// suspends the thread in virtual time accordingly, and calls Step again
// with a Resume describing the action's outcome.
//
// A Body's Step runs inside the kernel's event dispatch (it IS the thread's
// host code), so implementations are annotated //rtseed:kernelctx: nothing
// outside the kernel may call Step directly, and Step must never be spawned
// onto a goroutine. Steady-state Step implementations on benchmarked hot
// paths should also be allocation-free — a continuation that captures fresh
// state per step defeats the point of running bodies inline.
type Body interface {
	Step(c *TCB, r Resume) Next
}

// StepFunc adapts a plain function to the Body interface for stateless or
// closure-state bodies.
type StepFunc func(c *TCB, r Resume) Next

// Step implements Body.
//
//rtseed:kernelctx
func (f StepFunc) Step(c *TCB, r Resume) Next { return f(c, r) }

// Resume carries the outcome of the previous action into the next Step.
type Resume struct {
	// First is true on a thread's very first step, before any action.
	First bool
	// Completed reports whether the previous action ran to completion.
	// It is false only for a ComputeInterruptible burst terminated by
	// SIGALRM.
	Completed bool
	// Ran is the CPU time the previous compute action consumed.
	Ran time.Duration
	// Unran is the nominal work a terminated interruptible burst did not
	// perform.
	Unran time.Duration
}

// Next is the action a body requests from the kernel. The zero Next is
// invalid; construct one with the action constructors below. Each action
// suspends the thread in virtual time according to the machine cost model
// and resumes it with the action's outcome in the next Step's Resume.
//
// A Next is the kernel's whole record of the request: the kernel keeps the
// thread's current action in Thread.next and reads its operands from there
// until the action completes.
type Next struct {
	kind          actionKind
	interruptible bool // Compute: SIGALRM may terminate the burst
	mask          bool // SetAlarmMask
	rel           bool // Sleep: at is resolved from dur when the action runs
	dur           time.Duration
	at            engine.Time
	cv            *CondVar
	mutex         *Mutex
	op            machine.Op
	// cpu is the destination of ChargeOpRemote and Migrate.
	cpu machine.HWThread
}

// actionKind names the system call a Next models.
type actionKind uint8

const (
	actCompute actionKind = iota + 1
	actSleepUntil
	actCondWait
	actCondSignal
	actCondBroadcast
	actTimerSet
	actTimerStop
	actSetAlarmMask
	actChargeOp
	actChargeOpRemote
	actMutexLock
	actMutexUnlock
	actMigrate
	actYield
	actExit
)

// Compute burns d of CPU time. The burst is preemptible by higher-priority
// threads but cannot be terminated by SIGALRM. d <= 0 completes immediately.
func Compute(d time.Duration) Next {
	return Next{kind: actCompute, dur: d}
}

// ComputeInterruptible burns up to d of CPU time; a SIGALRM (from the
// optional-deadline timer) terminates the burst early. The following Resume
// reports Completed and Ran. When the burst is terminated, the SIGALRM
// handler-entry cost has already been charged and — as POSIX does — SIGALRM
// is left masked, as if executing inside the signal handler; the caller's
// termination mechanism decides how (and whether) to restore the mask.
// d <= 0 completes immediately.
func ComputeInterruptible(d time.Duration) Next {
	return Next{kind: actCompute, dur: d, interruptible: true}
}

// SleepUntil blocks until the absolute virtual time at (clock_nanosleep
// with TIMER_ABSTIME). A wake-up from sleep is priced as a job-release
// dispatch.
func SleepUntil(at engine.Time) Next {
	return Next{kind: actSleepUntil, at: at}
}

// Sleep blocks for the duration d, measured from the instant the action is
// executed.
func Sleep(d time.Duration) Next {
	return Next{kind: actSleepUntil, dur: d, rel: true}
}

// CondWait blocks on cv until signalled (pthread_cond_wait).
func CondWait(cv *CondVar) Next {
	return Next{kind: actCondWait, cv: cv}
}

// CondSignal wakes the longest-waiting thread blocked on cv, if any
// (pthread_cond_signal). Waking a thread on another core additionally pays
// the cross-core transfer penalty.
func CondSignal(cv *CondVar) Next {
	return Next{kind: actCondSignal, cv: cv}
}

// CondBroadcast wakes every thread blocked on cv (pthread_cond_broadcast).
// RT-Seed deliberately does not use broadcast for optional parts — signals
// go to specific threads as their jobs are dispatched — but the primitive
// exists for completeness and for the ablation benchmarks.
func CondBroadcast(cv *CondVar) Next {
	return Next{kind: actCondBroadcast, cv: cv}
}

// TimerSet arms the thread's one-shot SIGALRM timer at absolute time at
// (timer_settime, TIMER_ABSTIME), replacing any armed timer.
func TimerSet(at engine.Time) Next {
	return Next{kind: actTimerSet, at: at}
}

// TimerStop disarms the timer and discards a pending SIGALRM.
func TimerStop() Next {
	return Next{kind: actTimerStop}
}

// SetAlarmMask blocks (true) or unblocks (false) SIGALRM for the thread.
func SetAlarmMask(masked bool) Next {
	return Next{kind: actSetAlarmMask, mask: masked}
}

// Yield relinquishes the CPU to the back of the caller's priority level
// (sched_yield under SCHED_FIFO). With no equal-or-higher-priority thread
// ready, the caller continues after the switch cost.
func Yield() Next {
	return Next{kind: actYield}
}

// ChargeOp burns the cost of one machine primitive on the calling CPU; used
// for explicitly-modelled middleware work such as sigsetjmp/siglongjmp.
func ChargeOp(op machine.Op) Next {
	return Next{kind: actChargeOp, op: op}
}

// ChargeOpRemote burns the cost of op directed at hardware thread to,
// including the cross-core penalty when to is on a different core.
func ChargeOpRemote(op machine.Op, to machine.HWThread) Next {
	return Next{kind: actChargeOpRemote, op: op, cpu: to}
}

// MutexLock acquires m, blocking in FIFO order while it is held.
func MutexLock(m *Mutex) Next {
	return Next{kind: actMutexLock, mutex: m}
}

// MutexUnlock releases m and hands it to the longest-waiting contender, if
// any. The kernel panics if the caller does not hold m: unlocking someone
// else's mutex is always a program bug.
func MutexUnlock(m *Mutex) Next {
	return Next{kind: actMutexUnlock, mutex: m}
}

// Migrate re-pins the calling thread to cpu (sched_setaffinity at runtime)
// and reschedules it there. The thread pays the cross-core migration cost —
// a context switch plus the transfer of its working set — which is exactly
// the overhead the paper's §IV-B design discussion holds against global
// scheduling. Migrating to the current CPU is a no-op that completes
// immediately.
func Migrate(cpu machine.HWThread) Next {
	return Next{kind: actMigrate, cpu: cpu}
}

// Done ends the body: the thread exits.
func Done() Next {
	return Next{kind: actExit}
}

// NewBodyThread creates a simulated thread whose body is a resumable
// continuation executed inline by the kernel — no goroutine is ever created
// for it. The body's first Step runs when the thread is started and first
// dispatched. NewBodyThread returns an error for a nil body and for
// out-of-range priorities or CPUs.
func (k *Kernel) NewBodyThread(cfg ThreadConfig, body Body) (*Thread, error) {
	if body == nil {
		return nil, fmt.Errorf("kernel: nil continuation body")
	}
	return k.newThread(cfg, body)
}

// MustNewBodyThread is NewBodyThread for statically-valid configuration.
func (k *Kernel) MustNewBodyThread(cfg ThreadConfig, body Body) *Thread {
	t, err := k.NewBodyThread(cfg, body)
	if err != nil {
		panic(err)
	}
	return t
}

// resumeThread hands the CPU to t's body: deliver r, the previous action's
// outcome, obtain the next action, and execute it. Exactly one thread runs
// host code at a time, and the "context switch" is a plain call into the
// body's Step. The loop is a trampoline: actions that resolve without
// suspending the thread (uncontended MutexLock, SetAlarmMask, a sleep
// already in the past, a zero-length compute) re-enter resumeThread, which
// only marks stepPending here instead of recursing, so the stack never grows
// with the body's program.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) resumeThread(t *Thread, r Resume) {
	t.stepReply = r
	t.stepPending = true
	if t.stepping {
		return
	}
	t.stepping = true
	for t.stepPending && t.state != StateExited {
		t.stepPending = false
		k.applyNext(t, t.stepBody.Step(&t.tcb, t.stepReply))
	}
	t.stepping = false
}

// applyNext executes the action a body returned. Degenerate actions —
// zero-length computes and same-CPU migrations — complete immediately, and a
// relative Sleep resolves to its absolute wake time here. The blocking
// scripts of the kernel/oracle package take the same shortcuts on their own
// side, so the differential tests check these. Every other action is stored
// in t.next and either completes here, blocks the thread, or arms a costed
// service that finishService completes.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) applyNext(t *Thread, n Next) {
	switch {
	case n.kind == 0:
		badNext(t) // cold path split out so applyNext stays lean
	case n.kind == actCompute && n.dur <= 0, n.kind == actMigrate && n.cpu == t.cpuID:
		k.resumeThread(t, Resume{Completed: true})
		return
	case n.rel:
		n.rel = false
		n.at = k.eng.Now().Add(n.dur)
		n.dur = 0
	}
	t.next = n
	switch n.kind {
	case actCompute:
		k.handleCompute(t)
	case actSleepUntil:
		k.handleSleep(t)
	case actCondWait:
		k.service(t, k.mach.Cost(machine.OpCondWait, t.cpuID))
	case actCondSignal:
		k.service(t, k.signalCost(t, n.cv))
	case actCondBroadcast:
		k.service(t, k.broadcastCost(t, n.cv))
	case actTimerSet, actTimerStop:
		k.service(t, k.mach.Cost(machine.OpTimerProgram, t.cpuID))
	case actSetAlarmMask:
		// pthread_sigmask. Unblocking with a signal pending delivers it at
		// the thread's next interruptible burst.
		t.alarmMasked = n.mask
		k.resumeThread(t, Resume{Completed: true})
	case actChargeOp:
		k.service(t, k.mach.Cost(n.op, t.cpuID))
	case actChargeOpRemote:
		k.service(t, k.mach.RemoteCost(n.op, t.cpuID, n.cpu))
	case actMutexLock:
		k.handleMutexLock(t, n.mutex)
	case actMutexUnlock:
		k.handleMutexUnlock(t, n.mutex)
	case actMigrate:
		k.service(t, k.migrateCost(t, n.cpu))
	case actYield:
		k.handleYield(t)
	case actExit:
		k.handleExit(t)
	}
}

func badNext(t *Thread) {
	panic(fmt.Sprintf("kernel: thread %v returned the zero Next; bodies must return an action constructor (Compute, Sleep, ..., Done)", t))
}
