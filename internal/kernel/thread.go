package kernel

import (
	"fmt"
	"time"

	"rtseed/internal/engine"
	"rtseed/internal/list"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
)

// Priority bounds of SCHED_FIFO: larger values denote higher priority.
const (
	MinPriority = 1
	MaxPriority = 99
)

// State is a simulated thread's scheduling state.
type State int

// Thread states.
const (
	StateNew State = iota + 1
	StateReady
	StateRunning   // on CPU, inside a kernel service
	StateComputing // on CPU, burning a compute burst
	StateBlocked   // waiting on a condition variable
	StateSleeping  // in clock_nanosleep
	StateExited
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateComputing:
		return "computing"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return "unknown"
	}
}

// ThreadConfig configures a new simulated thread.
type ThreadConfig struct {
	// Name identifies the thread in traces.
	Name string
	// Priority is the SCHED_FIFO priority, in [MinPriority, MaxPriority].
	Priority int
	// CPU pins the thread to a hardware thread (sched_setaffinity with a
	// single CPU, as RT-Seed does).
	CPU machine.HWThread
}

// Thread is a simulated SCHED_FIFO thread.
type Thread struct {
	id    int
	name  string
	prio  int
	cpuID machine.HWThread
	k     *Kernel
	state State

	// started guards against a second Start; unbound marks the machine
	// binding released (see unbind).
	started bool
	unbound bool

	// The thread's body (body.go): the kernel drives its state machine
	// inline from the dispatch path. tcb is the pre-allocated TCB handed to
	// every Step, stepReply the Resume for the next Step, and
	// stepping/stepPending the trampoline state of resumeThread.
	stepBody    Body
	tcb         TCB
	stepReply   Resume
	stepping    bool
	stepPending bool

	// next is the action the body returned last: the kernel reads its
	// operands from here until the action completes.
	next Next
	// pendingReply is delivered when the thread is next dispatched after
	// being woken from a blocking call; before the first dispatch it is
	// the first Step's Resume.
	pendingReply Resume

	// qnext/qprev link the thread into its run-queue priority level, and
	// queued marks membership. A thread is in at most one ready queue, so
	// the links live in the Thread itself: enqueueing touches no extra
	// cache line and allocates nothing.
	qnext, qprev *Thread
	queued       bool
	// cvNode links the thread into a mutex or condition variable waiter
	// list; it is pre-allocated in newThread and reused.
	cvNode *list.Node[*Thread]

	// dispatchOp prices the next dispatch of this thread: OpDispatch for a
	// wake-up from sleep (job release), OpContextSwitch otherwise.
	dispatchOp machine.Op

	// Compute burst bookkeeping. computeRemaining and computeRan are
	// nominal work; computeFactor is the SMT throughput factor sampled at
	// the current segment's start (interruptible bursts only), stretching
	// the wall time a unit of work takes. Whether the burst is
	// interruptible is read from the compute action in next.
	inCompute        bool
	computeRemaining time.Duration
	computeRan       time.Duration
	computeFactor    float64
	computeStart     engine.Time
	computeWall      time.Duration
	computeDone      engine.Event //rtseed:handle-ok cleared or re-armed on every burst transition; interruptCompute gates on Scheduled

	// cpuConsumed accumulates compute time across bursts (see CPUTime).
	cpuConsumed time.Duration
	// migrations counts runtime re-pinnings (see Migrations).
	migrations int
	// base is the thread's base priority while boosted by priority
	// inheritance (0 = not boosted).
	base int

	// SIGALRM state.
	alarmMasked  bool
	pendingAlarm bool
	timer        engine.Event //rtseed:handle-ok re-armed under Cancel by finishService and zeroed on disarm/exit

	// Pre-allocated engine callbacks for the per-job hot paths (compute
	// completion, timer fire, wake-up). Each reads its parameters from the
	// thread's fields at fire time — safe because the thread is parked in
	// the kernel call until the callback resumes it — so arming an event
	// allocates no closure. Costed kernel services need none: they
	// complete in finishService, which reads their operands from next.
	computeDoneFn func()
	alarmFireFn   func()
	wakeFn        func()
}

// ID returns the thread's creation-order identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread's fixed priority.
func (t *Thread) Priority() int { return t.prio }

// CPU returns the hardware thread the thread is pinned to.
func (t *Thread) CPU() machine.HWThread { return t.cpuID }

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("%s(prio=%d,cpu=%d)", t.name, t.prio, t.cpuID)
}

func (t *Thread) preemptible() bool { return t.state == StateComputing }

// newThread builds and registers a thread running body.
func (k *Kernel) newThread(cfg ThreadConfig, body Body) (*Thread, error) {
	if cfg.Priority < MinPriority || cfg.Priority > MaxPriority {
		return nil, fmt.Errorf("kernel: priority %d out of range [%d,%d]", cfg.Priority, MinPriority, MaxPriority)
	}
	if !k.mach.Topology().Contains(cfg.CPU) {
		return nil, fmt.Errorf("kernel: cpu %d outside topology", cfg.CPU)
	}
	k.nextTID++
	t := &Thread{
		id:           k.nextTID,
		name:         cfg.Name,
		prio:         cfg.Priority,
		cpuID:        cfg.CPU,
		k:            k,
		state:        StateNew,
		dispatchOp:   machine.OpContextSwitch,
		stepBody:     body,
		pendingReply: Resume{First: true},
	}
	t.tcb = TCB{t: t}
	// The thread owns its waiter-list node for its whole lifetime:
	// enqueueing links this pre-allocated node, so waiter lists never
	// allocate on the scheduling path. (The ready queues use the intrusive
	// qnext/qprev links and need no node at all.)
	t.cvNode = &list.Node[*Thread]{Value: t}
	// The pre-allocated per-thread callbacks below all run inside the
	// engine's event dispatch.
	//rtseed:kernelctx
	t.computeDoneFn = func() { k.finishCompute(t) }
	//rtseed:kernelctx
	t.alarmFireFn = func() {
		t.timer = engine.Event{}
		k.deliverAlarm(t)
	}
	//rtseed:kernelctx
	t.wakeFn = func() {
		if t.state != StateSleeping {
			return
		}
		t.dispatchOp = machine.OpDispatch
		k.makeReady(t, false)
	}
	k.threads = append(k.threads, t)
	k.mach.BindRT(t.cpuID)
	return t, nil
}

// Start makes the thread ready at the current virtual time; the body's
// first Step runs inline at the first dispatch.
//
//rtseed:kernelctx-entry quiescent setup: runs while the engine is stopped, serialized with the event loop
func (t *Thread) Start() {
	if t.started {
		panic("kernel: thread started twice")
	}
	t.started = true
	t.k.makeReady(t, false)
}

// kill force-terminates a thread parked in a kernel call. The body holds no
// host resources, so marking the thread exited is the whole job.
func (t *Thread) kill() {
	t.state = StateExited
	t.k.unbind(t)
}

// unbind releases the thread's machine binding exactly once.
func (k *Kernel) unbind(t *Thread) {
	if t.unbound {
		return
	}
	t.unbound = true
	k.mach.UnbindRT(t.cpuID)
}

//rtseed:kernelctx
func (k *Kernel) handleCompute(t *Thread) {
	t.computeRemaining = t.next.dur
	t.computeRan = 0
	t.computeFactor = 1
	c := k.cpu(t.cpuID)
	// Yield to a higher-priority ready thread before starting the burst.
	if top := c.runq.topPriority(); top > t.prio {
		t.state = StateReady
		t.inCompute = true
		t.dispatchOp = machine.OpContextSwitch
		k.emit(t, trace.KindPreempt, 0)
		k.setCurrent(c, nil)
		c.runq.enqueue(t, true)
		k.scheduleDispatch(c)
		return
	}
	k.startCompute(t)
}

//rtseed:kernelctx
func (k *Kernel) handleSleep(t *Thread) {
	if t.next.at <= k.eng.Now() {
		k.resumeThread(t, Resume{Completed: true})
		return
	}
	t.state = StateSleeping
	k.emit(t, trace.KindSleep, 0)
	k.releaseCPU(t)
	t.pendingReply = Resume{Completed: true}
	k.eng.Schedule(t.next.at, prioRelease, t.wakeFn)
}

//rtseed:kernelctx
func (k *Kernel) handleExit(t *Thread) {
	t.state = StateExited
	k.emit(t, trace.KindExit, 0)
	k.eng.Cancel(t.timer)
	t.timer = engine.Event{}
	k.unbind(t)
	k.releaseCPU(t)
}
