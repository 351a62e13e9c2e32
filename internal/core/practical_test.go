package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// practicalTask builds a two-section practical task: T=100ms, sections
// (m=10ms, 2 parts) and (m=15ms, 1 part), wind-up 20ms.
func practicalTask(o time.Duration) task.PracticalTask {
	return task.PracticalTask{
		Name: "prac",
		Sections: []task.Section{
			{Mandatory: ms(10), Optional: []time.Duration{o, o}},
			{Mandatory: ms(15), Optional: []time.Duration{o}},
		},
		Windup: ms(20),
		Period: ms(100),
	}
}

func TestPracticalValidate(t *testing.T) {
	if err := practicalTask(time.Second).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []task.PracticalTask{
		{Name: "no-sections", Windup: 1, Period: 10},
		{Name: "zero-m", Sections: []task.Section{{Mandatory: 0}}, Period: 10},
		{Name: "overfull", Sections: []task.Section{{Mandatory: 9}}, Windup: 9, Period: 10},
		{Name: "neg-opt", Sections: []task.Section{{Mandatory: 1, Optional: []time.Duration{-1}}}, Period: 10},
	}
	for _, tk := range bad {
		if err := tk.Validate(); err == nil {
			t.Errorf("%s accepted", tk.Name)
		}
	}
}

func TestPracticalFlattenEquivalence(t *testing.T) {
	tk := practicalTask(time.Second)
	flat := tk.Flatten()
	if flat.Mandatory != ms(25) || flat.Windup != ms(20) || flat.Period != ms(100) {
		t.Fatalf("flattened %+v", flat)
	}
	if flat.NumOptional() != 3 {
		t.Fatalf("flattened np %d, want 3", flat.NumOptional())
	}
	if tk.WCET() != flat.WCET() || tk.Utilization() != flat.Utilization() {
		t.Fatal("flatten must preserve the real-time demand")
	}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionDeadlines(t *testing.T) {
	tk := practicalTask(time.Second) // equal optional lengths
	ods, err := tk.SectionDeadlines(ms(75))
	if err != nil {
		t.Fatal(err)
	}
	if len(ods) != 2 {
		t.Fatalf("%d deadlines", len(ods))
	}
	// Slack = 75 - 25 = 50ms, split 2:1 by optional workload:
	// OD_0 = 10 + 33.3 = 43.3ms, OD_1 = 75ms.
	if ods[1] != ms(75) {
		t.Fatalf("last section deadline %v, want 75ms", ods[1])
	}
	if ods[0] <= ms(10) || ods[0] >= ods[1] {
		t.Fatalf("section deadlines %v not strictly increasing within budget", ods)
	}
	want0 := ms(10) + time.Duration(float64(ms(50))*2.0/3.0)
	if diff := ods[0] - want0; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("OD_0 = %v, want ~%v (2/3 of slack)", ods[0], want0)
	}
	if _, err := tk.SectionDeadlines(ms(10)); err == nil {
		t.Fatal("OD below total mandatory accepted")
	}
	if _, err := tk.SectionDeadlines(ms(200)); err == nil {
		t.Fatal("OD beyond period accepted")
	}
}

func TestPracticalProcessRuns(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tk := practicalTask(time.Second) // all parts overrun
	cpus, err := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPracticalProcess(k, PracticalConfig{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  ms(70),
		Jobs:              4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	st := p.Stats()
	if st.Jobs != 4 {
		t.Fatalf("jobs %d, want 4", st.Jobs)
	}
	if st.DeadlineMisses != 0 {
		t.Fatalf("misses %d", st.DeadlineMisses)
	}
	// 3 parts per job, all overrunning -> all terminated.
	if st.TerminatedParts != 12 {
		t.Fatalf("terminated %d, want 12", st.TerminatedParts)
	}
	// Sections ran in order: every job's wind-up starts at the last
	// section's optional deadline (70ms) plus ending overhead.
	for _, rec := range p.Records() {
		lag := rec.WindupStart - rec.Release - ms(70)
		if lag < 0 || lag > ms(10) {
			t.Fatalf("job %d wind-up lag %v", rec.Job, lag)
		}
	}
}

func TestPracticalSectionsInterleave(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	// Short optional parts complete within their section windows.
	tk := practicalTask(ms(2))
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	p, err := NewPracticalProcess(k, PracticalConfig{
		Task:              tk,
		MandatoryPriority: 90,
		MandatoryCPU:      0,
		OptionalCPUs:      cpus,
		OptionalDeadline:  ms(70),
		Jobs:              2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	st := p.Stats()
	if st.CompletedParts != 6 {
		t.Fatalf("completed %d, want 6", st.CompletedParts)
	}
	if st.MeanQoS != 1 {
		t.Fatalf("QoS %v", st.MeanQoS)
	}
}

func TestPracticalWithOneSectionMatchesParallelExtended(t *testing.T) {
	// With a single section the practical model reduces to the
	// parallel-extended model: the same job records and the same trace,
	// byte for byte.
	k1 := newSim(t, machine.NoLoad)
	buf1 := traceTo(k1)
	single := task.PracticalTask{
		Name:     "tau1",
		Sections: []task.Section{{Mandatory: ms(25), Optional: []time.Duration{time.Second, time.Second}}},
		Windup:   ms(25),
		Period:   ms(100),
	}
	cpus, _ := assign.HWThreads(k1.Machine().Topology(), assign.OneByOne, 2)
	pp, err := NewPracticalProcess(k1, PracticalConfig{
		Task: single, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pp.Start()
	k1.Run()
	closeTrace(t, k1)

	k2 := newSim(t, machine.NoLoad)
	buf2 := traceTo(k2)
	pe := newProcess(t, k2, paperTask(2, time.Second), 3, nil, Probes{}, App{})
	pe.Start()
	k2.Run()
	closeTrace(t, k2)

	if a, b := pp.Records(), pe.Records(); !reflect.DeepEqual(a, b) {
		t.Fatalf("practical records %+v\nvs parallel-extended %+v", a, b)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("traces differ: practical %d bytes, parallel-extended %d bytes", buf1.Len(), buf2.Len())
	}
}

// TestPracticalTraceAnalysis checks that a traced two-section run's
// middleware records give trace.Analyze the same counts as the process's
// own job records: one release-latency sample per job, and per-section part
// outcomes.
func TestPracticalTraceAnalysis(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	buf := traceTo(k)
	tk := task.PracticalTask{
		Name: "prac",
		Sections: []task.Section{
			// One part completes and one is terminated at the first
			// section's deadline; the second section's mandatory part
			// ends past its deadline, so its part is discarded.
			{Mandatory: ms(10), Optional: []time.Duration{ms(5), time.Second}},
			{Mandatory: ms(15), Optional: []time.Duration{time.Second}},
		},
		Windup: ms(20),
		Period: ms(100),
	}
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	p, err := NewPracticalProcess(k, PracticalConfig{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0, OptionalCPUs: cpus,
		OptionalDeadline: ms(70), SectionDeadlines: []time.Duration{ms(40), ms(45)}, Jobs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	closeTrace(t, k)
	decoded, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(decoded)
	ts := a.TaskByName("prac")
	if ts == nil {
		t.Fatalf("no task %q in the analysis: %+v", "prac", a.Tasks)
	}
	st := p.Stats()
	if st.CompletedParts == 0 || st.TerminatedParts == 0 || st.DiscardedParts == 0 {
		t.Fatalf("the run must complete, terminate and discard parts: %+v", st)
	}
	if ts.Jobs != st.Jobs || ts.ReleaseLat.N != uint64(st.Jobs) ||
		ts.Completed != st.CompletedParts || ts.Terminated != st.TerminatedParts ||
		ts.Discarded != st.DiscardedParts || ts.Misses != st.DeadlineMisses {
		t.Fatalf("analysis %+v disagrees with stats %+v", ts, st)
	}
}

// traceTo attaches a file-backed tracer writing into the returned buffer.
func traceTo(k *kernel.Kernel) *bytes.Buffer {
	var buf bytes.Buffer
	k.SetTrace(trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads(), Sink: &buf}))
	return &buf
}

// closeTrace flushes k's tracer with the thread table.
func closeTrace(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	if err := k.Trace().Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}
}

func TestPracticalConfigValidation(t *testing.T) {
	k := newSim(t, machine.NoLoad)
	tk := practicalTask(time.Second)
	cpus, _ := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, tk.NumOptional())
	base := PracticalConfig{
		Task: tk, MandatoryPriority: 90, MandatoryCPU: 0,
		OptionalCPUs: cpus, OptionalDeadline: ms(70), Jobs: 1,
	}
	bad := []func(*PracticalConfig){
		func(c *PracticalConfig) { c.MandatoryPriority = 10 },
		func(c *PracticalConfig) { c.Jobs = 0 },
		func(c *PracticalConfig) { c.OptionalCPUs = cpus[:1] },
		func(c *PracticalConfig) { c.OptionalDeadline = ms(5) },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(40)} },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(50), ms(40)} },
		func(c *PracticalConfig) { c.SectionDeadlines = []time.Duration{ms(40), ms(90)} },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewPracticalProcess(k, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewPracticalProcess(k, base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// practicalRun runs cfg with its optional parts placed One-by-One on a fresh
// traced kernel and returns the job records and the tracer's records.
func practicalRun(t *testing.T, cfg PracticalConfig) ([]task.JobRecord, []trace.Record) {
	t.Helper()
	k := newSim(t, machine.NoLoad)
	tr := trace.New(trace.Config{CPUs: k.Machine().Topology().NumHWThreads(), Capacity: 1 << 14})
	k.SetTrace(tr)
	cpus, err := assign.HWThreads(k.Machine().Topology(), assign.OneByOne, cfg.Task.NumOptional())
	if err != nil {
		t.Fatal(err)
	}
	cfg.OptionalCPUs = cpus
	p, err := NewPracticalProcess(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.Run()
	if lost := tr.TotalLost(); lost != 0 {
		t.Fatalf("tracer lost %d records", lost)
	}
	return p.Records(), tr.Records()
}

// practicalDigest is the SHA-256 of the JSON of the job records followed by
// the JSON of the kernel-kind trace records. Middleware kinds and sequence
// numbers are left out, so the digest pins what the kernel did and what the
// task achieved, independent of which middleware records are emitted.
func practicalDigest(t *testing.T, recs []task.JobRecord, trs []trace.Record) string {
	t.Helper()
	var kernelRecs []trace.Record
	for _, r := range trs {
		if r.Kind < trace.KindJobRelease {
			r.Seq = 0
			kernelRecs = append(kernelRecs, r)
		}
	}
	h := sha256.New()
	for _, v := range []any{recs, kernelRecs} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPracticalGoldenDigests pins traced practical runs: every termination
// mechanism on the two-section task, a section whose optional deadline has
// passed when its mandatory part ends (its parts are discarded), and
// sections without optional parts.
func TestPracticalGoldenDigests(t *testing.T) {
	base := func(tk task.PracticalTask) PracticalConfig {
		return PracticalConfig{Task: tk, MandatoryPriority: 90, OptionalDeadline: ms(70), Jobs: 4}
	}
	sigjmp := base(practicalTask(ms(25)))
	periodic := base(practicalTask(ms(25)))
	periodic.Termination = PeriodicCheckTermination{Period: ms(3)}
	tryCatch := base(practicalTask(ms(25)))
	tryCatch.Termination = TryCatchTermination{}
	// Section 1's mandatory part ends at ≈55ms, past its 45ms deadline.
	discard := base(practicalTask(time.Second))
	discard.SectionDeadlines = []time.Duration{ms(40), ms(45)}
	discard.MandatoryCPU = 1
	empty := base(task.PracticalTask{
		Name: "gaps",
		Sections: []task.Section{
			{Mandatory: ms(10)},
			{Mandatory: ms(10), Optional: []time.Duration{ms(20), time.Second}},
			{Mandatory: ms(5)},
		},
		Windup: ms(20),
		Period: ms(100),
	})
	cases := []struct {
		name string
		cfg  PracticalConfig
		want string
	}{
		{"sigjmp", sigjmp, "1fb7cccffb993cb9bbf4479a6bb54ad41e7b2c03d93f56be5cd254610621d5c6"},
		{"periodic-check", periodic, "7ed3abb67734c0e7396001e756c0be399086a0d005afa3ad7fedd2f240769dfb"},
		{"try-catch", tryCatch, "cf34e2b464b60981bbb12882fe28932c8b51db6411baa98fcd2790b23edb2f21"},
		{"discard", discard, "86786dea2cfd38c958e8117270d0028491790febbdc4082cdad918a71b36840e"},
		{"no-optional-section", empty, "167473b2da4d6a2a3b1b19fd9cd9ed8c190f26bbc0526914ae41a1855e70563d"},
	}
	for _, tc := range cases {
		recs, trs := practicalRun(t, tc.cfg)
		if tc.name == "discard" && task.Summarize(recs).DiscardedParts == 0 {
			t.Errorf("discard: no part was discarded")
		}
		if got := practicalDigest(t, recs, trs); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
