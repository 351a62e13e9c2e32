package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"rtseed/internal/engine"
)

// Histogram is a power-of-two-bucketed latency histogram: bucket i (i ≥ 1)
// counts durations in [2^(i-1), 2^i) ns, bucket 0 counts non-positive ones.
type Histogram struct {
	Buckets [65]uint64
	N       uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Add records one duration.
func (h *Histogram) Add(d time.Duration) {
	h.Buckets[bucketIndex(d)]++
	if h.N == 0 || d < h.Min {
		h.Min = d
	}
	if h.N == 0 || d > h.Max {
		h.Max = d
	}
	h.N++
	h.Sum += d
}

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketBounds returns the [lo, hi) range of bucket i.
func BucketBounds(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1 << i
}

// Mean returns the average recorded duration.
func (h *Histogram) Mean() time.Duration {
	if h.N == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.N)
}

// Format writes the non-empty buckets, one per line with the given indent.
func (h *Histogram) Format(b *strings.Builder, indent string) {
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		fmt.Fprintf(b, "%s[%11v, %11v) %6d %s\n", indent, lo, hi, n, strings.Repeat("#", barLen(n, h.N)))
	}
}

func barLen(n, total uint64) int {
	if total == 0 {
		return 0
	}
	return int(n * 40 / total)
}

// TaskStat aggregates one task's records: job and part counts that mirror
// task.Stats, plus response-time (finish − release) and release-latency
// (mandatory start − release, the paper's Δm) histograms.
type TaskStat struct {
	Name       string
	Jobs       int
	Completed  int
	Terminated int
	Discarded  int
	Misses     int
	Response   Histogram
	ReleaseLat Histogram
}

// Miss attributes one deadline miss: which optional parts overran (were
// terminated at OD), how often the task's threads were preempted inside the
// job window, and which thread took the CPU at the last such preemption.
type Miss struct {
	Task     string
	Job      int
	At       engine.Time
	Lateness time.Duration
	// OverranParts lists the parallel optional parts terminated at the
	// optional deadline in this job — the parts that ate the slack.
	OverranParts []int
	// Preemptions counts preemptions of the task's threads in the job
	// window [release, finish].
	Preemptions int
	// Preemptor names the thread that took the CPU at the last preemption
	// in the window, or "" if the task was never preempted.
	Preemptor string
}

// Interval is a half-open busy interval [From, To).
type Interval struct {
	From, To engine.Time
}

// CPUTimeline is one CPU's busy intervals in time order.
type CPUTimeline struct {
	CPU  uint16
	Busy []Interval
}

// Utilization buckets the timeline's busy time into n equal slices of
// [0, span), returning the busy fraction of each slice.
func (c *CPUTimeline) Utilization(n int, span engine.Time) []float64 {
	out := make([]float64, n)
	if n == 0 || span <= 0 {
		return out
	}
	width := span.Duration() / time.Duration(n)
	if width <= 0 {
		return out
	}
	for _, iv := range c.Busy {
		for b := 0; b < n; b++ {
			lo := engine.At(time.Duration(b) * width)
			hi := lo.Add(width)
			from, to := iv.From, iv.To
			if from < lo {
				from = lo
			}
			if to > hi {
				to = hi
			}
			if to > from {
				out[b] += float64(to.Sub(from)) / float64(width)
			}
		}
	}
	return out
}

// Analysis is the post-hoc view of one trace: per-task statistics, deadline
// misses with attribution, and per-CPU busy timelines.
type Analysis struct {
	// Tasks is sorted by task name. A task is the common prefix of its
	// threads' names ("a.mand", "a.opt0" → task "a"); threads without the
	// middleware suffix form single-thread tasks under their own name.
	Tasks []TaskStat
	// Misses lists every KindDeadlineMiss in trace order.
	Misses []Miss
	// CPUs is sorted by CPU id; busy time is dispatch → preempt/block/
	// sleep/exit per thread, attributed to the record's CPU.
	CPUs []CPUTimeline
	// Span is the largest record timestamp: the traced horizon.
	Span engine.Time
	// Lost is the trace's total overwritten-record count; a nonzero value
	// means every count below is a lower bound.
	Lost uint64
}

// TaskByName returns the statistics of the named task, or nil.
func (a *Analysis) TaskByName(name string) *TaskStat {
	for i := range a.Tasks {
		if a.Tasks[i].Name == name {
			return &a.Tasks[i]
		}
	}
	return nil
}

// NonEmpty reports whether the analysis saw at least one job with a
// response-time sample — the trace-smoke gate.
func (a *Analysis) NonEmpty() bool {
	for i := range a.Tasks {
		if a.Tasks[i].Response.N > 0 {
			return true
		}
	}
	return false
}

// MergedSummary is the cross-file aggregate of several analyses. The cluster
// layer records one trace file per simulated machine; merging their analyses
// gives one deterministic fleet-wide summary (sums and maxima are insensitive
// to the order the per-machine files are visited in).
type MergedSummary struct {
	// Files is how many analyses were merged.
	Files int
	// Tasks, Jobs and Misses are summed over every file's task statistics.
	Tasks  int
	Jobs   int
	Misses int
	// Span is the largest traced horizon of any file.
	Span engine.Time
	// Lost is the total overwritten-record count across files.
	Lost uint64
}

// Merge aggregates per-machine analyses into one fleet summary.
func Merge(as ...*Analysis) MergedSummary {
	var m MergedSummary
	for _, a := range as {
		if a == nil {
			continue
		}
		m.Files++
		m.Tasks += len(a.Tasks)
		for i := range a.Tasks {
			m.Jobs += a.Tasks[i].Jobs
			m.Misses += a.Tasks[i].Misses
		}
		if a.Span > m.Span {
			m.Span = a.Span
		}
		m.Lost += a.Lost
	}
	return m
}

// taskName maps a thread name to its task: the middleware names threads
// "<task>.mand" and "<task>.opt<k>", anything else is its own task.
func taskName(thread string) string {
	i := strings.LastIndexByte(thread, '.')
	if i < 0 {
		return thread
	}
	suffix := thread[i+1:]
	if suffix == "mand" || isOptSuffix(suffix) {
		return thread[:i]
	}
	return thread
}

func isOptSuffix(s string) bool {
	if !strings.HasPrefix(s, "opt") || len(s) == 3 {
		return false
	}
	for _, r := range s[3:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// taskAgg is one task's running aggregate in Analyze. A task is reported
// once a record has counted toward its statistics.
type taskAgg struct {
	stat     TaskStat
	counted  bool
	releases releaseTable
	overran  map[int][]int // job → parts terminated at OD
	preempts []int         // indexes of the task's KindPreempt records
}

// releaseTable maps a task's job numbers to their latest release instants.
// Jobs are numbered 0, 1, 2, ... in a real trace, so the table is a slice
// indexed by job number. A job number that would grow the slice past twice
// the task's release records, plus a constant, goes to a map instead: such
// numbers appear only in hostile files, and the bound keeps the table's
// memory linear in the records for any input.
type releaseTable struct {
	dense  []release
	sparse map[int]engine.Time
	n      int // release records seen
}

// release is one slot of releaseTable.dense.
type release struct {
	at  engine.Time
	set bool
}

// denseSlack is how far past twice its release count a task's dense
// release slice may reach.
const denseSlack = 64

// put records job's release at at.
func (rt *releaseTable) put(job int, at engine.Time) {
	rt.n++
	if job >= 0 && job < len(rt.dense) {
		rt.dense[job] = release{at: at, set: true}
		return
	}
	if job >= 0 && job < 2*rt.n+denseSlack {
		rt.dense = append(rt.dense, make([]release, job+1-len(rt.dense))...)
		rt.dense[job] = release{at: at, set: true}
		return
	}
	if rt.sparse == nil {
		rt.sparse = make(map[int]engine.Time)
	}
	rt.sparse[job] = at
}

// get returns job's latest release. A set dense slot is newer than any map
// entry for the same job: once the slice covers a job, put never writes the
// map for it again.
func (rt *releaseTable) get(job int) (engine.Time, bool) {
	if job >= 0 && job < len(rt.dense) && rt.dense[job].set {
		return rt.dense[job].at, true
	}
	at, ok := rt.sparse[job]
	return at, ok
}

// count returns the task's statistics and marks the task as reported.
func (g *taskAgg) count() *TaskStat {
	g.counted = true
	return &g.stat
}

// threadSlot is one thread's state in Analyze: whether it holds a CPU,
// since when and which, and the aggregate of the task it belongs to.
type threadSlot struct {
	task    *taskAgg
	running bool
	from    engine.Time
	cpu     uint16
}

// Analyze computes the full analysis of a decoded trace.
func Analyze(t *Trace) *Analysis {
	a := &Analysis{Lost: t.TotalLost()}

	threadName := make(map[uint32]string, len(t.Threads)) // TID → thread name
	for _, th := range t.Threads {
		threadName[th.TID] = th.Name
	}
	nameOf := func(tid uint32) string {
		if name, ok := threadName[tid]; ok {
			return name
		}
		return fmt.Sprintf("tid%d", tid)
	}

	// Each TID resolves once to its thread slot; threads whose names map to
	// the same task share the task's aggregate. A TID missing from the
	// thread table is its own task "tid<n>".
	tasks := make(map[string]*taskAgg)
	slots := make(map[uint32]*threadSlot)
	var lastTID uint32
	var last *threadSlot
	slot := func(tid uint32) *threadSlot {
		if last != nil && tid == lastTID {
			return last
		}
		s, ok := slots[tid]
		if !ok {
			name := taskName(nameOf(tid))
			g, ok := tasks[name]
			if !ok {
				g = &taskAgg{stat: TaskStat{Name: name}}
				tasks[name] = g
			}
			s = &threadSlot{task: g}
			slots[tid] = s
		}
		lastTID, last = tid, s
		return s
	}

	var cpuBusy [][]Interval // CPU → busy intervals
	var missAt []int         // record indexes of KindDeadlineMiss

	for i, rec := range t.Records {
		if rec.At > a.Span {
			a.Span = rec.At
		}
		th := slot(rec.TID)
		g := th.task
		switch rec.Kind {
		case KindDispatch:
			th.running, th.from, th.cpu = true, rec.At, rec.CPU
		case KindPreempt, KindBlock, KindSleep, KindExit:
			if rec.Kind == KindPreempt {
				g.preempts = append(g.preempts, i)
			}
			if th.running {
				th.running = false
				if rec.At > th.from {
					for int(th.cpu) >= len(cpuBusy) {
						cpuBusy = append(cpuBusy, nil)
					}
					cpuBusy[th.cpu] = append(cpuBusy[th.cpu], Interval{From: th.from, To: rec.At})
				}
			}
		case KindJobRelease:
			g.releases.put(int(rec.Arg), rec.At)
		case KindMandStart:
			s := g.count()
			if rel, ok := g.releases.get(int(rec.Arg)); ok {
				s.ReleaseLat.Add(rec.At.Sub(rel))
			}
		case KindJobEnd:
			s := g.count()
			s.Jobs++
			if rel, ok := g.releases.get(int(rec.Arg)); ok {
				s.Response.Add(rec.At.Sub(rel))
			}
		case KindOptEnd:
			g.count().Completed++
		case KindOptTerm:
			g.count().Terminated++
			job, part := UnpackJobPart(rec.Arg)
			if g.overran == nil {
				g.overran = make(map[int][]int)
			}
			g.overran[job] = append(g.overran[job], part)
		case KindOptDiscard:
			g.count().Discarded++
		case KindDeadlineMiss:
			g.count().Misses++
			missAt = append(missAt, i)
		case KindReady, KindOptFork, KindOptStart, KindWindupStart,
			KindTimerArm, KindTimerFire, KindDeadlineMet:
			// No aggregate statistic depends on these kinds; listed
			// explicitly so a new Kind fails the exhaustive check and gets a
			// deliberate decision here instead of a silent drop.
		}
	}

	for _, i := range missAt {
		rec := t.Records[i]
		g := slots[rec.TID].task
		job, lateness := UnpackMiss(rec.Arg)
		m := Miss{Task: g.stat.Name, Job: job, At: rec.At, Lateness: lateness}
		if parts := g.overran[job]; parts != nil {
			m.OverranParts = append([]int(nil), parts...)
			sort.Ints(m.OverranParts)
		}
		release, haveRelease := g.releases.get(job)
		// Attribution over the job window: count the task's preemptions up
		// to the miss and name the thread dispatched in place of the last
		// one.
		for _, j := range g.preempts {
			if j > i {
				break
			}
			r := t.Records[j]
			if haveRelease && r.At < release {
				continue
			}
			m.Preemptions++
			for n := j + 1; n <= i; n++ {
				next := t.Records[n]
				if next.Kind == KindDispatch && next.CPU == r.CPU && next.TID != r.TID {
					m.Preemptor = nameOf(next.TID)
					break
				}
			}
		}
		a.Misses = append(a.Misses, m)
	}

	for _, g := range tasks {
		if g.counted {
			a.Tasks = append(a.Tasks, g.stat)
		}
	}
	sort.Slice(a.Tasks, func(i, j int) bool { return a.Tasks[i].Name < a.Tasks[j].Name })
	for cpu, busy := range cpuBusy {
		if busy != nil {
			a.CPUs = append(a.CPUs, CPUTimeline{CPU: uint16(cpu), Busy: busy})
		}
	}
	return a
}
