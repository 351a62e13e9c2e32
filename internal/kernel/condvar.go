package kernel

import (
	"time"

	"rtseed/internal/list"
	"rtseed/internal/machine"
)

// CondVar is a simulated condition variable in the style of pthread_cond_t.
// The simulation serializes all host code, so the associated mutex of the
// POSIX API is implicit; Wait atomically blocks and Signal wakes the
// longest-waiting thread, exactly as RT-Seed uses per-optional-thread
// condition variables (paper Fig. 6/7).
type CondVar struct {
	name    string
	waiters *list.List[*Thread]
}

// NewCondVar returns a condition variable. The name appears in diagnostics.
func (k *Kernel) NewCondVar(name string) *CondVar {
	return &CondVar{name: name, waiters: list.New[*Thread]()}
}

// Name returns the condition variable's name.
func (cv *CondVar) Name() string { return cv.name }

// Waiters returns the number of blocked threads.
func (cv *CondVar) Waiters() int { return cv.waiters.Len() }

// signalCost prices pthread_cond_signal on cv by t, with the cross-core
// transfer penalty when the woken thread lives on another core. The local
// price is drawn even then: every draw advances the machine's jitter
// stream.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) signalCost(t *Thread, cv *CondVar) time.Duration {
	cost := k.mach.Cost(machine.OpCondSignal, t.cpuID)
	if target := cv.waiters.Front(); target != nil {
		cost = k.mach.RemoteCost(machine.OpCondSignal, t.cpuID, target.Value.cpuID)
	}
	return cost
}

// broadcastCost prices pthread_cond_broadcast on cv by t: one signal's worth
// of work per waiter, and at least one.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) broadcastCost(t *Thread, cv *CondVar) time.Duration {
	cost := k.mach.Cost(machine.OpCondSignal, t.cpuID)
	for i := 1; i < cv.waiters.Len(); i++ {
		cost += k.mach.Cost(machine.OpCondSignal, t.cpuID)
	}
	return cost
}

// wakeOne unblocks the front waiter of cv, if any.
//
//rtseed:kernelctx
func (k *Kernel) wakeOne(cv *CondVar) {
	n := cv.waiters.PopFront()
	if n == nil {
		return
	}
	w := n.Value
	w.dispatchOp = machine.OpContextSwitch
	k.makeReady(w, false)
}
