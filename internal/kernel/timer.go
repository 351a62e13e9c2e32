package kernel

import "rtseed/internal/trace"

// deliverAlarm raises SIGALRM for t. If t is in an interruptible compute
// burst with the signal unmasked, the burst is terminated immediately;
// otherwise the signal stays pending and is delivered when the thread next
// enters an interruptible burst with the signal unmasked — or never, if the
// mask is never cleared (the try/catch pathology of Table I).
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) deliverAlarm(t *Thread) {
	t.pendingAlarm = true
	k.emit(t, trace.KindTimerFire, 0)
	k.checkAlarm(t)
}

// checkAlarm delivers a pending SIGALRM if t is currently interruptible.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) checkAlarm(t *Thread) {
	if !t.pendingAlarm || t.alarmMasked || !t.next.interruptible {
		return
	}
	if t.state != StateComputing {
		// Preempted mid-burst or between bursts: delivery happens when the
		// burst resumes (startCompute re-checks).
		return
	}
	k.interruptCompute(t)
}
