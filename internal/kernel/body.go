package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/machine"
)

// This file is the continuation executor: task bodies as resumable state
// machines driven inline by the kernel's dispatch path. The goroutine
// executor (thread.go) models host code as a blocked goroutine and pays a
// channel round-trip per context switch; here a context switch is a plain
// function call into Body.Step, so the per-event cost is the scheduling work
// itself and n=100k+ thread simulations need no goroutines at all. Both
// executors sit behind the same kernel API and produce byte-identical
// traces for the same program (fuzz-proven by sched.FuzzBodyVsGoroutine);
// the goroutine path is a test-only oracle with no production caller.

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
// state per step defeats the point of removing the handshake.
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

// Next is the action a continuation body requests from the kernel. The zero
// Next is invalid; construct one with the action constructors below, which
// mirror the blocking TCB methods one-for-one (old signature → new form is
// a mechanical rewrite: c.Compute(d) becomes `return kernel.Compute(d)`
// plus a program-counter transition).
type Next struct {
	req request
}

// Compute burns d of CPU time (TCB.Compute). d <= 0 completes immediately.
func Compute(d time.Duration) Next {
	return Next{req: request{kind: reqCompute, dur: d}}
}

// ComputeInterruptible burns up to d of CPU time; SIGALRM terminates the
// burst early (TCB.ComputeInterruptible). The following Resume reports
// Completed and Ran.
func ComputeInterruptible(d time.Duration) Next {
	return Next{req: request{kind: reqCompute, dur: d, interruptible: true}}
}

// SleepUntil blocks until the absolute virtual time at (TCB.SleepUntil).
func SleepUntil(at engine.Time) Next {
	return Next{req: request{kind: reqSleepUntil, at: at}}
}

// Sleep blocks for the duration d, measured from the instant the action is
// executed (TCB.Sleep).
func Sleep(d time.Duration) Next {
	return Next{req: request{kind: reqSleepUntil, dur: d, rel: true}}
}

// CondWait blocks on cv until signalled (TCB.CondWait).
func CondWait(cv *CondVar) Next {
	return Next{req: request{kind: reqCondWait, cv: cv}}
}

// CondSignal wakes the longest-waiting thread blocked on cv (TCB.CondSignal).
func CondSignal(cv *CondVar) Next {
	return Next{req: request{kind: reqCondSignal, cv: cv}}
}

// CondBroadcast wakes every thread blocked on cv (TCB.CondBroadcast).
func CondBroadcast(cv *CondVar) Next {
	return Next{req: request{kind: reqCondBroadcast, cv: cv}}
}

// TimerSet arms the thread's one-shot SIGALRM timer at absolute time at
// (TCB.TimerSet).
func TimerSet(at engine.Time) Next {
	return Next{req: request{kind: reqTimerSet, at: at}}
}

// TimerStop disarms the timer and discards a pending SIGALRM (TCB.TimerStop).
func TimerStop() Next {
	return Next{req: request{kind: reqTimerStop}}
}

// SetAlarmMask blocks (true) or unblocks (false) SIGALRM (TCB.SetAlarmMask).
func SetAlarmMask(masked bool) Next {
	return Next{req: request{kind: reqSetAlarmMask, mask: masked}}
}

// Yield relinquishes the CPU to the back of the caller's priority level
// (TCB.Yield).
func Yield() Next {
	return Next{req: request{kind: reqYield}}
}

// ChargeOp burns the cost of one machine primitive (TCB.ChargeOp).
func ChargeOp(op machine.Op) Next {
	return Next{req: request{kind: reqChargeOp, op: op}}
}

// ChargeOpRemote burns the cost of op directed at hardware thread to
// (TCB.ChargeOpRemote).
func ChargeOpRemote(op machine.Op, to machine.HWThread) Next {
	return Next{req: request{kind: reqChargeOpRemote, op: op, remote: to}}
}

// MutexLock acquires m, blocking in FIFO order while it is held
// (TCB.MutexLock).
func MutexLock(m *Mutex) Next {
	return Next{req: request{kind: reqMutexLock, mutex: m}}
}

// MutexUnlock releases m (TCB.MutexUnlock).
func MutexUnlock(m *Mutex) Next {
	return Next{req: request{kind: reqMutexUnlock, mutex: m}}
}

// Migrate re-pins the calling thread to cpu (TCB.Migrate). Migrating to the
// current CPU is a no-op that completes immediately.
func Migrate(cpu machine.HWThread) Next {
	return Next{req: request{kind: reqMigrate, remote: cpu}}
}

// Done ends the body: the thread exits (a goroutine body returning).
func Done() Next {
	return Next{req: request{kind: reqExit}}
}

// NewBodyThread creates a simulated thread whose body is a resumable
// continuation executed inline by the kernel — no goroutine is ever
// created for it. It is the continuation-executor counterpart of NewThread
// and returns the same errors for out-of-range configuration.
func (k *Kernel) NewBodyThread(cfg ThreadConfig, body Body) (*Thread, error) {
	if body == nil {
		return nil, fmt.Errorf("kernel: nil continuation body")
	}
	t, err := k.newThread(cfg)
	if err != nil {
		return nil, err
	}
	t.stepBody = body
	t.stepFirst = true
	return t, nil
}

// MustNewBodyThread is NewBodyThread for statically-valid configuration.
func (k *Kernel) MustNewBodyThread(cfg ThreadConfig, body Body) *Thread {
	t, err := k.NewBodyThread(cfg, body)
	if err != nil {
		panic(err)
	}
	return t
}

// stepThread drives a continuation body: deliver the previous action's
// outcome, obtain the next action, and execute it. The loop is a
// trampoline: actions that resolve without suspending the thread
// (uncontended MutexLock, SetAlarmMask, a sleep already in the past, a
// zero-length compute) re-enter via resumeThread, which only marks
// stepPending here instead of recursing, so the stack never grows with the
// body's program.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) stepThread(t *Thread, reply replyMsg) {
	t.stepReply = reply
	t.stepPending = true
	if t.stepping {
		return
	}
	t.stepping = true
	for t.stepPending && t.state != StateExited {
		t.stepPending = false
		r := Resume{
			First:     t.stepFirst,
			Completed: t.stepReply.completed,
			Ran:       t.stepReply.ran,
			Unran:     t.stepReply.unran,
		}
		t.stepFirst = false
		next := t.stepBody.Step(&t.tcb, r)
		k.applyNext(t, next)
	}
	t.stepping = false
}

// applyNext executes the action a continuation body returned. Degenerate
// actions that the blocking TCB wrappers short-circuit without a kernel
// request (zero-length computes, same-CPU migrations) complete immediately
// here too, so both executors issue identical request sequences — the
// invariant the differential fuzzer locks in.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) applyNext(t *Thread, n Next) {
	req := n.req
	switch {
	case req.kind == 0:
		badNext(t) // cold path split out so applyNext stays lean
	case req.kind == reqCompute && req.dur <= 0:
		k.resumeThread(t, replyMsg{completed: true})
		return
	case req.kind == reqMigrate && req.remote == t.cpuID:
		k.resumeThread(t, replyMsg{completed: true})
		return
	case req.rel:
		req.rel = false
		req.at = k.eng.Now().Add(req.dur)
		req.dur = 0
	}
	t.req = req
	k.handleRequest(t)
}

func badNext(t *Thread) {
	panic(fmt.Sprintf("kernel: thread %v returned the zero Next; bodies must return an action constructor (Compute, Sleep, ..., Done)", t))
}
