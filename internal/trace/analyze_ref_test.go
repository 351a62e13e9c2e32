package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"rtseed/internal/engine"
)

// referenceAnalyze is Analyze as it was written first: string-keyed maps
// looked up on every record and, for each miss, a rescan of every record up
// to it. It is kept as the executable specification Analyze must match.
func referenceAnalyze(t *Trace) *Analysis {
	a := &Analysis{Lost: t.TotalLost()}

	tidThread := make(map[uint32]string) // TID → thread name
	tidTask := make(map[uint32]string)   // TID → task name
	for _, th := range t.Threads {
		tidThread[th.TID] = th.Name
		tidTask[th.TID] = taskName(th.Name)
	}
	task := func(tid uint32) string {
		if name, ok := tidTask[tid]; ok {
			return name
		}
		return fmt.Sprintf("tid%d", tid)
	}

	stats := make(map[string]*TaskStat)
	stat := func(name string) *TaskStat {
		s, ok := stats[name]
		if !ok {
			s = &TaskStat{Name: name}
			stats[name] = s
		}
		return s
	}

	type jobKey struct {
		task string
		job  int
	}
	releases := make(map[jobKey]engine.Time)
	overran := make(map[jobKey][]int)
	running := make(map[uint32]engine.Time) // TID → dispatch time
	runCPU := make(map[uint32]uint16)       // TID → dispatch CPU
	cpuBusy := make(map[uint16][]Interval)
	var missAt []int // record indexes of KindDeadlineMiss

	for i, rec := range t.Records {
		if rec.At > a.Span {
			a.Span = rec.At
		}
		switch rec.Kind {
		case KindDispatch:
			running[rec.TID] = rec.At
			runCPU[rec.TID] = rec.CPU
		case KindPreempt, KindBlock, KindSleep, KindExit:
			if from, ok := running[rec.TID]; ok {
				delete(running, rec.TID)
				cpu := runCPU[rec.TID]
				if rec.At > from {
					cpuBusy[cpu] = append(cpuBusy[cpu], Interval{From: from, To: rec.At})
				}
			}
		case KindJobRelease:
			releases[jobKey{task(rec.TID), int(rec.Arg)}] = rec.At
		case KindMandStart:
			s := stat(task(rec.TID))
			if rel, ok := releases[jobKey{s.Name, int(rec.Arg)}]; ok {
				s.ReleaseLat.Add(rec.At.Sub(rel))
			}
		case KindJobEnd:
			s := stat(task(rec.TID))
			s.Jobs++
			if rel, ok := releases[jobKey{s.Name, int(rec.Arg)}]; ok {
				s.Response.Add(rec.At.Sub(rel))
			}
		case KindOptEnd:
			stat(task(rec.TID)).Completed++
		case KindOptTerm:
			s := stat(task(rec.TID))
			s.Terminated++
			job, part := UnpackJobPart(rec.Arg)
			key := jobKey{s.Name, job}
			overran[key] = append(overran[key], part)
		case KindOptDiscard:
			stat(task(rec.TID)).Discarded++
		case KindDeadlineMiss:
			stat(task(rec.TID)).Misses++
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
		name := task(rec.TID)
		job, lateness := UnpackMiss(rec.Arg)
		m := Miss{Task: name, Job: job, At: rec.At, Lateness: lateness}
		if parts := overran[jobKey{name, job}]; parts != nil {
			m.OverranParts = append([]int(nil), parts...)
			sort.Ints(m.OverranParts)
		}
		release, haveRelease := releases[jobKey{name, job}]
		// Attribution pass over the job window: count preemptions of the
		// task's threads and name the thread dispatched in place of the
		// last one.
		for j := 0; j <= i; j++ {
			r := t.Records[j]
			if r.Kind != KindPreempt || task(r.TID) != name {
				continue
			}
			if haveRelease && r.At < release {
				continue
			}
			m.Preemptions++
			for n := j + 1; n <= i; n++ {
				next := t.Records[n]
				if next.Kind == KindDispatch && next.CPU == r.CPU && next.TID != r.TID {
					if thName, ok := tidThread[next.TID]; ok {
						m.Preemptor = thName
					} else {
						m.Preemptor = fmt.Sprintf("tid%d", next.TID)
					}
					break
				}
			}
		}
		a.Misses = append(a.Misses, m)
	}

	for name := range stats {
		a.Tasks = append(a.Tasks, *stats[name])
	}
	sort.Slice(a.Tasks, func(i, j int) bool { return a.Tasks[i].Name < a.Tasks[j].Name })
	for cpu := range cpuBusy {
		a.CPUs = append(a.CPUs, CPUTimeline{CPU: cpu, Busy: cpuBusy[cpu]})
	}
	sort.Slice(a.CPUs, func(i, j int) bool { return a.CPUs[i].CPU < a.CPUs[j].CPU })
	return a
}

// manyMissTrace scripts a random trace dense in deadline misses,
// preemptions and terminated parts. Its thread table has a TID listed twice,
// a thread named like the fallback name of an unlisted TID, and several
// threads per task; TIDs 8-10 and 12 are not listed at all. TIDs 11 and 12
// only ever run, so their tasks must not be reported. Timestamps mostly
// advance but sometimes step back, and job indexes repeat.
func manyMissTrace(rng *rand.Rand, n int) *Trace {
	t := &Trace{
		Threads: []ThreadInfo{
			{TID: 1, Name: "a.mand"},
			{TID: 2, Name: "a.opt0"},
			{TID: 3, Name: "b.mand"},
			{TID: 4, Name: "b.opt1"},
			{TID: 5, Name: "tid9"},
			{TID: 6, Name: "solo"},
			{TID: 3, Name: "c.mand"},
			{TID: 7, Name: "c.opt2"},
			{TID: 11, Name: "hog"},
		},
		Lost: []uint64{0, 3},
	}
	kinds := []Kind{
		KindDispatch, KindDispatch, KindPreempt, KindPreempt, KindBlock, KindSleep, KindExit,
		KindJobRelease, KindMandStart, KindJobEnd, KindOptEnd, KindOptTerm, KindOptDiscard,
		KindDeadlineMiss, KindDeadlineMiss, KindReady, KindTimerFire,
	}
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(100_000)) - 10_000
		kind := kinds[rng.Intn(len(kinds))]
		job := rng.Intn(6)
		arg := uint64(job)
		switch kind {
		case KindOptTerm, KindOptEnd, KindOptDiscard:
			arg = PackJobPart(job, rng.Intn(3))
		case KindDeadlineMiss:
			arg = PackMiss(job, time.Duration(1+rng.Intn(1_000_000)))
		}
		tid := uint32(1 + rng.Intn(10))
		if (kind == KindDispatch || kind == KindPreempt) && rng.Intn(3) == 0 {
			tid = uint32(11 + rng.Intn(2))
		}
		t.Records = append(t.Records, Record{
			Seq:  uint64(i + 1),
			At:   engine.At(now),
			Arg:  arg,
			TID:  tid,
			CPU:  uint16(rng.Intn(4)),
			Kind: kind,
		})
	}
	return t
}

// TestAnalyzeMatchesReference checks Analyze, miss attribution included,
// against referenceAnalyze on traces with thousands of misses.
func TestAnalyzeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tr := manyMissTrace(rand.New(rand.NewSource(seed)), 200+int(seed)*600)
		got, want := Analyze(tr), referenceAnalyze(tr)
		if len(want.Misses) < len(tr.Records)/20 {
			t.Fatalf("seed %d: only %d misses in %d records", seed, len(want.Misses), len(tr.Records))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Analyze differs from the reference\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}
