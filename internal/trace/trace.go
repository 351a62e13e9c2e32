// Package trace is the simulator's ftrace/LTTng-style tracing subsystem:
// fixed-capacity buffers of packed 32-byte records emitted from the
// kernel's dispatch/release/timer/sleep/termination paths and from the
// middleware's P-RMWP part boundaries, plus a versioned binary file format
// (file.go), post-hoc analyses (analyze.go), and a Chrome trace_event
// exporter (perfetto.go).
//
// The emit path is allocation-free (//rtseed:noalloc, enforced by
// rtseed-vet) and never blocks the simulation. A flight recorder (no sink)
// writes each record as a value into a pre-sized per-CPU ring that, once
// full, overwrites its oldest records and counts them as lost. A file-backed
// tracer packs each record, in emission order, into one tracer-wide section
// buffer and writes the buffer to the sink as one record section every
// Capacity records (the only write path that touches I/O).
//
// Records are stamped with a tracer-global sequence number, so the merged
// stream of all CPUs has a total order that is a pure function of the
// simulation — byte-identical across runs and worker counts.
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rtseed/internal/engine"
)

// Kind classifies one trace record. The zero Kind is invalid so a zeroed
// record is never mistaken for a real one.
type Kind uint8

// Record kinds. The first block mirrors the kernel's thread state
// transitions; the second block is the timer path; the third block is the
// middleware's P-RMWP part boundaries (Fig. 6/7 protocol points).
const (
	// KindReady: the thread entered a run queue (arg unused).
	KindReady Kind = iota + 1
	// KindDispatch: the thread was given its CPU after a context switch.
	KindDispatch
	// KindPreempt: a higher-priority thread took the CPU away.
	KindPreempt
	// KindBlock: the thread blocked on a condition variable or mutex.
	KindBlock
	// KindSleep: the thread entered clock_nanosleep.
	KindSleep
	// KindExit: the thread exited.
	KindExit
	// KindTimerArm: timer_settime armed the one-shot SIGALRM timer;
	// arg is the absolute expiry in ns of virtual time.
	KindTimerArm
	// KindTimerFire: the timer expired and SIGALRM was raised.
	KindTimerFire
	// KindJobRelease: a job was released; At is the nominal release
	// instant, arg the job index.
	KindJobRelease
	// KindMandStart: the mandatory part began (arg = job); the release
	// latency Δm is MandStart.At − JobRelease.At.
	KindMandStart
	// KindOptFork: the mandatory thread began waking the parallel optional
	// threads (arg = job) — the mandatory→optional fork.
	KindOptFork
	// KindOptStart: parallel optional part k began (arg = PackJobPart).
	KindOptStart
	// KindOptEnd: an optional part ran to completion (arg = PackJobPart).
	KindOptEnd
	// KindOptTerm: the optional-deadline timer terminated the part via
	// siglongjmp (arg = PackJobPart).
	KindOptTerm
	// KindOptDiscard: the part was discarded without running
	// (arg = PackJobPart).
	KindOptDiscard
	// KindWindupStart: the wind-up part began (arg = job).
	KindWindupStart
	// KindJobEnd: the job finished its wind-up part (arg = job).
	KindJobEnd
	// KindDeadlineMet: the job finished by its deadline (arg = job).
	KindDeadlineMet
	// KindDeadlineMiss: the job finished late; arg = PackMiss(job,
	// lateness).
	KindDeadlineMiss

	kindMax
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindReady:
		return "ready"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindBlock:
		return "block"
	case KindSleep:
		return "sleep"
	case KindExit:
		return "exit"
	case KindTimerArm:
		return "timer-arm"
	case KindTimerFire:
		return "timer-fire"
	case KindJobRelease:
		return "job-release"
	case KindMandStart:
		return "mand-start"
	case KindOptFork:
		return "opt-fork"
	case KindOptStart:
		return "opt-start"
	case KindOptEnd:
		return "opt-end"
	case KindOptTerm:
		return "opt-term"
	case KindOptDiscard:
		return "opt-discard"
	case KindWindupStart:
		return "windup-start"
	case KindJobEnd:
		return "job-end"
	case KindDeadlineMet:
		return "deadline-met"
	case KindDeadlineMiss:
		return "deadline-miss"
	default:
		return "unknown"
	}
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool { return k >= KindReady && k < kindMax }

// Record is one packed trace record. Its binary form is exactly 32 bytes
// (recordSize in file.go); the struct mirrors that layout field for field.
type Record struct {
	// Seq is the tracer-global emission sequence number, starting at 1.
	// Sorting the merged per-CPU streams by Seq recovers the total order.
	Seq uint64
	// At is the virtual-time instant the record describes.
	At engine.Time
	// Arg is the kind-specific payload (job index, PackJobPart, expiry...).
	Arg uint64
	// TID is the emitting thread's kernel id.
	TID uint32
	// CPU is the hardware thread the record was emitted on.
	CPU uint16
	// Kind classifies the record.
	Kind Kind
}

// PackJobPart packs a job index and a parallel-optional-part index into a
// record argument: part in the low 16 bits, job above.
func PackJobPart(job, part int) uint64 {
	return uint64(job)<<16 | uint64(part)&0xffff
}

// UnpackJobPart is the inverse of PackJobPart.
func UnpackJobPart(arg uint64) (job, part int) {
	return int(arg >> 16), int(arg & 0xffff)
}

// PackMiss packs a job index and its deadline lateness into a
// KindDeadlineMiss argument: lateness (ns, saturating at ~4.29s) in the low
// 32 bits, job above.
func PackMiss(job int, lateness time.Duration) uint64 {
	ns := uint64(lateness)
	if lateness < 0 {
		ns = 0
	} else if ns > 0xffffffff {
		ns = 0xffffffff
	}
	return uint64(job)<<32 | ns
}

// UnpackMiss is the inverse of PackMiss.
func UnpackMiss(arg uint64) (job int, lateness time.Duration) {
	return int(arg >> 32), time.Duration(arg & 0xffffffff)
}

// MissedDeadline is the single definition of a deadline miss shared by the
// middleware (task.JobRecord.Met), the quantum-driven EDF and G-RMWP
// simulators, and the trace analyzer: a job that finishes at finish with
// absolute deadline deadline misses iff it finishes strictly after it. All
// policies attribute misses through this predicate so their counts are
// comparable.
func MissedDeadline(finish, deadline time.Duration) bool { return finish > deadline }

// ThreadInfo is the per-thread metadata written alongside the records so
// analyzers can resolve TIDs to names, priorities, and home CPUs.
type ThreadInfo struct {
	TID      uint32
	CPU      uint16
	Priority uint16
	Name     string
}

// DefaultCapacity is the record capacity used when Config leaves it zero:
// 4096 records = 128 KiB per ring, or per spilled section with a sink.
const DefaultCapacity = 4096

// Config configures a Tracer.
type Config struct {
	// CPUs is the number of CPUs records may be emitted on; Emit panics on a
	// CPU at or beyond it. A flight recorder allocates one ring per CPU at
	// New, whether or not the CPU ever emits.
	CPUs int
	// Capacity is the number of records of each per-CPU ring without a
	// sink, and of each record section spilled to the sink with one
	// (DefaultCapacity when zero).
	Capacity int
	// Sink, when non-nil, makes the tracer file-backed: records are written
	// to the sink in emission order, Capacity records per section, so no
	// record is ever lost and no per-CPU ring is allocated. When nil the
	// tracer is a flight recorder: a full ring overwrites its oldest records
	// and counts them in Lost.
	Sink io.Writer
}

// cpuRing is one CPU's flight-recorder ring. count is the number of
// records ever stored; the ring holds the most recent min(count, len(buf))
// records ending at index w.
type cpuRing struct {
	buf   []Record
	w     int // next write index
	count uint64
}

// Tracer collects trace records. All methods must be called from the
// simulation's single host-code thread (the kernel runs every thread body
// inline in its event dispatch, so this holds); the tracer does no locking.
type Tracer struct {
	cpus      int
	rings     []cpuRing // flight recorder only
	capacity  int
	seq       uint64
	observers []func(Record)

	// File-backed state. sec holds the packed records of the section being
	// filled, n of them; headerDone latches after the header bytes are
	// written; err holds the first sink error and stops further writes.
	sink       io.Writer
	sec        []byte
	n          int
	headerDone bool
	err        error
}

// New builds a tracer. Everything Emit writes to is allocated here, so Emit
// is allocation-free from the first record: a flight recorder's CPUs ×
// Capacity ring records, or a file-backed tracer's one section buffer of
// Capacity packed records.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tr := &Tracer{cpus: cfg.CPUs, capacity: capacity, sink: cfg.Sink}
	if cfg.Sink != nil {
		tr.sec = make([]byte, capacity*recordSize)
		return tr
	}
	tr.rings = make([]cpuRing, cfg.CPUs)
	for i := range tr.rings {
		tr.rings[i].buf = make([]Record, capacity)
	}
	return tr
}

// Tap registers a live observer called with every emitted record, including
// records the rings later overwrite. The sched.Recorder uses this to build
// run segments without bounding history to the ring capacity.
func (tr *Tracer) Tap(fn func(Record)) { tr.observers = append(tr.observers, fn) }

// Emit records one event on cpu. This is the hot path: it never blocks and
// never allocates. With a sink the record is packed into the section
// buffer, which is written out when full; without one it is stored in
// cpu's ring. Emitting on a CPU beyond the configured count is a
// construction bug, not a growth event, and panics.
//
//rtseed:noalloc
//rtseed:kernelctx
func (tr *Tracer) Emit(at engine.Time, cpu uint16, tid uint32, kind Kind, arg uint64) {
	if int(cpu) >= tr.cpus {
		panic(fmt.Sprintf("trace: Emit on CPU %d, but the tracer was built for %d CPUs", cpu, tr.cpus))
	}
	tr.seq++
	rec := Record{Seq: tr.seq, At: at, Arg: arg, TID: tid, CPU: cpu, Kind: kind}
	for _, fn := range tr.observers {
		fn(rec)
	}
	if tr.sink != nil {
		putRecord(tr.sec[tr.n*recordSize:], rec)
		if tr.n++; tr.n == tr.capacity {
			tr.spill()
		}
		return
	}
	r := &tr.rings[cpu]
	if r.w == len(r.buf) {
		r.w = 0 // wrap, overwriting the oldest
	}
	r.buf[r.w] = rec
	r.w++
	r.count++
}

// Lost returns the per-CPU counts of records overwritten by ring wraparound
// (flight-recorder mode; all zero when a sink is attached).
func (tr *Tracer) Lost() []uint64 {
	lost := make([]uint64, tr.cpus)
	for i := range tr.rings {
		lost[i] = tr.rings[i].lost()
	}
	return lost
}

// TotalLost sums Lost over all CPUs.
func (tr *Tracer) TotalLost() uint64 {
	var sum uint64
	for i := range tr.rings {
		sum += tr.rings[i].lost()
	}
	return sum
}

// Emitted returns how many records have been emitted in total, including
// any the rings have overwritten.
func (tr *Tracer) Emitted() uint64 { return tr.seq }

// lost is how many of the ring's records have been overwritten.
func (r *cpuRing) lost() uint64 {
	if n := uint64(len(r.buf)); r.count > n {
		return r.count - n
	}
	return 0
}

// retained returns the ring's surviving records in emission order.
func (r *cpuRing) retained() []Record {
	if r.count <= uint64(len(r.buf)) {
		return r.buf[:r.w]
	}
	// Wrapped: oldest surviving record is at w.
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.w:]...)
	out = append(out, r.buf[:r.w]...)
	return out
}

// Records returns the retained records in emission (sequence) order. In
// flight-recorder mode this is the tracer's whole surviving history, the
// rings merged; with a sink attached it is only the section not yet
// spilled — use the sink's file for the full stream.
func (tr *Tracer) Records() []Record {
	var out []Record
	for i := 0; i < tr.n; i++ {
		out = append(out, getRecord(tr.sec[i*recordSize:]))
	}
	for i := range tr.rings {
		out = append(out, tr.rings[i].retained()...)
	}
	sortRecords(out)
	return out
}

// sortRecords orders records by sequence number, merging the per-CPU
// streams into the global emission order.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
}
