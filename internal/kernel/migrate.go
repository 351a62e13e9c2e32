package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/machine"
)

// migrateCost validates a Migrate of t to the hardware thread to and prices
// its departure from the old CPU: deschedule plus cache-line flush toward
// the destination core.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) migrateCost(t *Thread, to machine.HWThread) time.Duration {
	if !k.mach.Topology().Contains(to) {
		panic(fmt.Sprintf("kernel: migrate to invalid hw thread %d", to))
	}
	return k.mach.RemoteCost(machine.OpContextSwitch, t.cpuID, to)
}

// migrate re-pins t to the hardware thread to (sched_setaffinity at
// runtime) once the departure cost has elapsed, and reschedules it there.
//
//rtseed:noalloc
//rtseed:kernelctx
func (k *Kernel) migrate(t *Thread, to machine.HWThread) {
	old := t.cpuID
	k.setCurrent(k.cpu(old), nil)
	k.mach.UnbindRT(old)
	t.cpuID = to
	k.mach.BindRT(to)
	t.migrations++
	t.dispatchOp = machine.OpContextSwitch
	t.pendingReply = Resume{Completed: true}
	k.makeReady(t, false)
	// The old CPU is free; let it pick its next thread.
	k.scheduleDispatch(k.cpu(old))
}

// Migrations returns how many times the thread has migrated between
// hardware threads.
func (t *Thread) Migrations() int { return t.migrations }
