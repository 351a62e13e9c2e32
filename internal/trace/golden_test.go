package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/cluster"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/partition"
	"rtseed/internal/sched"
	"rtseed/internal/task"
	"rtseed/internal/trace"
)

// Golden read-back digests: the SHA-256 of the JSON of every decoded Trace
// and every Analysis for two real recordings. Any rewrite of Decode or
// Analyze must reproduce them byte for byte.
const (
	schedTraceDigest    = "812b3bf9481e1c2ab25f4e79fb60701b198b8172c6459913f05968b32cfa9345"
	schedAnalysisDigest = "752f876251be8f97c3d0a8eaaa70c0229b3e60bdf1a83c62655475a5dcf1025c"
	clusterDigest       = "2871dd7eebcc397324d1b0233fd47139a22441ba30ab588b7adf159b570aed08"

	// percpuTraceDigest and percpuAnalysisDigest pin the decoded Trace and
	// Analysis of percpuRun, whose file testdata/percpu-v1.rtt was written by
	// the per-CPU-ring tracer: its record sections are per-CPU chunks whose
	// sequence numbers interleave across sections.
	percpuTraceDigest    = "3df45950c45c48a523117eba94e6395945376973677a870f8aaeb82a00088b68"
	percpuAnalysisDigest = "f43ba514fcaeb6c50cf95a5ef46e904c19fb686996f63a7f568f0de2f2cf79d1"
)

func jsonDigest(t *testing.T, vs ...any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalyzeGoldenSched pins a file-backed P-RMWP run whose starved tasks
// miss deadlines, so the miss-attribution path is part of the digest.
func TestAnalyzeGoldenSched(t *testing.T) {
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	m, err := machine.New(machine.Topology{Cores: 8, ThreadsPerCore: 4}, machine.NoLoad, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(engine.New(), m)
	var buf bytes.Buffer
	k.SetTrace(trace.New(trace.Config{CPUs: m.Topology().NumHWThreads(), Capacity: 64, Sink: &buf}))
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
		Set: task.MustNewSet(
			task.Uniform("fast", ms(5), ms(5), ms(500), 2, ms(50)),
			task.Uniform("slow", ms(10), ms(10), ms(500), 2, ms(100)),
		),
		Horizon:        ms(300),
		Policy:         assign.OneByOne,
		Heuristic:      partition.FirstFit,
		OverheadMargin: ms(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	if err := k.Trace().Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(decoded)
	if len(a.Misses) == 0 {
		t.Fatal("the pinned run must miss deadlines")
	}
	if got := jsonDigest(t, decoded); got != schedTraceDigest {
		t.Errorf("trace digest %s, want %s", got, schedTraceDigest)
	}
	if got := jsonDigest(t, a); got != schedAnalysisDigest {
		t.Errorf("analysis digest %s, want %s", got, schedAnalysisDigest)
	}
}

// TestAnalyzeGoldenCluster pins a small multi-machine fleet recorded with
// TraceDir: every machine's decoded trace and analysis, in machine order.
func TestAnalyzeGoldenCluster(t *testing.T) {
	dir := t.TempDir()
	cfg := cluster.Config{
		Machines: 3,
		Topology: machine.Topology{Cores: 4, ThreadsPerCore: 2},
		Clients:  200,
		Seed:     42,
		Horizon:  400 * time.Millisecond,
		Workers:  1,
		TraceDir: dir,
	}
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var vs []any
	for i := 0; i < cfg.Machines; i++ {
		tr, err := trace.ReadFile(filepath.Join(dir, cluster.TraceFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, tr, trace.Analyze(tr))
	}
	if got := jsonDigest(t, vs...); got != clusterDigest {
		t.Errorf("digest %s, want %s", got, clusterDigest)
	}
}

// percpuRun records a short P-RMWP run on a 4-CPU machine with 8-record
// sections, so the file holds many record sections, and returns the file.
func percpuRun(t *testing.T) []byte {
	t.Helper()
	model := machine.DefaultCostModel()
	model.JitterFrac = 0
	m, err := machine.New(machine.Topology{Cores: 2, ThreadsPerCore: 2}, machine.NoLoad, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(engine.New(), m)
	var buf bytes.Buffer
	k.SetTrace(trace.New(trace.Config{CPUs: m.Topology().NumHWThreads(), Capacity: 8, Sink: &buf}))
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	sys, err := sched.NewPRMWP(k, sched.PRMWPConfig{
		Set: task.MustNewSet(
			task.Uniform("fast", ms(2), ms(2), ms(20), 3, ms(10)),
			task.Uniform("slow", ms(4), ms(4), ms(40), 3, ms(20)),
		),
		Horizon:        ms(40),
		Policy:         assign.AllByAll,
		Heuristic:      partition.FirstFit,
		OverheadMargin: ms(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	k.Run()
	if err := k.Trace().Close(k.ThreadInfos()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPerCPUFileDigests pins the read-back of a file written by the
// per-CPU-ring tracer and requires the same run, recorded by the current
// tracer, to decode to the same Trace and Analysis.
func TestPerCPUFileDigests(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "percpu-v1.rtt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"testdata/percpu-v1.rtt", old}, {"fresh recording", percpuRun(t)}} {
		decoded, err := trace.Decode(c.data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := jsonDigest(t, decoded); got != percpuTraceDigest {
			t.Errorf("%s: trace digest %s, want %s", c.name, got, percpuTraceDigest)
		}
		if got := jsonDigest(t, trace.Analyze(decoded)); got != percpuAnalysisDigest {
			t.Errorf("%s: analysis digest %s, want %s", c.name, got, percpuAnalysisDigest)
		}
	}
}
