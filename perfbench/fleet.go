package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtseed/internal/cluster"
	"rtseed/internal/machine"
	"rtseed/internal/trace"
	"rtseed/internal/workload"
)

// fleet is the fixed shape of one cluster workload: a builtin spec compiled
// for a client count and horizon, offered first-fit to machines of 16 cores
// × 2 SMT at the default admission margin.
type fleet struct {
	spec     string
	clients  int
	machines int
	horizon  time.Duration
}

var (
	flashAdmit   = fleet{spec: "flash-crash", clients: 2_000_000, machines: 128, horizon: 500 * time.Millisecond}
	replayedOpen = fleet{spec: "open-close", clients: 20_000, machines: 8, horizon: 10 * time.Second}
)

// replayTicks is the market-tick count recorded with the replay-traced
// population, the rtseed-workload default.
const replayTicks = 10000

func (f fleet) config(b *bench) cluster.Config {
	return cluster.Config{
		Machines: f.machines,
		Topology: machine.Topology{Cores: 16, ThreadsPerCore: 2},
		Policy:   cluster.FirstFit,
		Seed:     b.seed,
		Horizon:  f.horizon,
		Workers:  b.workers,
	}
}

func (f fleet) compile(b *bench) (*workload.SpecSource, error) {
	spec, ok := workload.BuiltinSpec(f.spec)
	if !ok {
		return nil, fmt.Errorf("no builtin spec %q", f.spec)
	}
	id := b.rec.begin("Compile", b.root)
	defer b.rec.end(id)
	return workload.Compile(spec, workload.CompileConfig{Clients: f.clients, Seed: b.seed, Horizon: f.horizon})
}

// countingSource wraps the Source handed to cluster.Config on traced
// iterations: it counts Params calls and counts and times Materialize calls.
// Params is a table lookup, so it is counted but not timed; a timer around
// each of millions of lookups would cost more than the lookups.
type countingSource struct {
	workload.Source
	params, materialized int
	materializeTime      time.Duration
}

func (c *countingSource) Params(id int) workload.ClientParams {
	c.params++
	return c.Source.Params(id)
}

func (c *countingSource) Materialize(p workload.ClientParams) (workload.Client, error) {
	t := time.Now()
	cl, err := c.Source.Materialize(p)
	c.materializeTime += time.Since(t)
	c.materialized++
	return cl, err
}

// fleetRun is one admitted and simulated fleet.
type fleetRun struct {
	plan *cluster.Plan
	res  *cluster.Result
	src  *countingSource // nil when untraced
	// sim is the CPU time inside Plan.Simulate.
	sim time.Duration
}

// simulateFleet admits cfg's population and simulates the plan.
func simulateFleet(b *bench, cfg cluster.Config) (fleetRun, error) {
	var fr fleetRun
	if b.rec != nil {
		fr.src = &countingSource{Source: cfg.Source}
		cfg.Source = fr.src
	}
	id := b.rec.begin("NewPlan", b.root)
	plan, err := cluster.NewPlan(cfg)
	b.rec.end(id)
	if err != nil {
		return fr, err
	}
	id = b.rec.begin("Simulate", b.root)
	c := procCPU()
	res, err := plan.Simulate()
	fr.sim = procCPU() - c
	b.rec.end(id)
	if err != nil {
		return fr, err
	}
	fr.plan, fr.res = plan, res
	return fr, nil
}

// checkFleet applies the invariants every fleet result must meet at any
// seed.
func checkFleet(b *bench, f fleet, res *cluster.Result) {
	name := b.w.name
	b.chk.check(res.Offered == f.clients, "%s: offered %d clients, want %d", name, res.Offered, f.clients)
	b.chk.check(res.Admitted > 0 && res.Admitted <= res.Offered, "%s: admitted %d of %d", name, res.Admitted, res.Offered)
	b.chk.check(res.Jobs > 0, "%s: no simulated jobs", name)
	b.chk.check(res.Misses == 0, "%s: %d deadline misses at the default admission margin", name, res.Misses)
	var jobs, misses, mjobs, mmisses int
	for _, c := range res.PerClass {
		jobs += c.Jobs
		misses += c.Misses
	}
	for _, m := range res.Machines {
		mjobs += m.Jobs
		mmisses += m.Misses
	}
	b.chk.check(jobs == res.Jobs && misses == res.Misses, "%s: per-class jobs/misses %d/%d, totals %d/%d", name, jobs, misses, res.Jobs, res.Misses)
	b.chk.check(mjobs == res.Jobs && mmisses == res.Misses, "%s: per-machine jobs/misses %d/%d, totals %d/%d", name, mjobs, mmisses, res.Jobs, res.Misses)
}

func fleetSample(fr fleetRun, setup time.Duration) sample {
	res := fr.res
	return sample{
		setup:    setup,
		sim:      fr.sim,
		jobs:     res.Jobs,
		admitted: res.Admitted,
		met:      1 - float64(res.Misses)/float64(res.Jobs),
	}
}

// fleetLayers derives the workload, admit and sim metrics of one traced
// iteration from its span times and the wrapped source's counters.
func fleetLayers(lt layerTimes, fr fleetRun) map[string]float64 {
	res, src := fr.res, fr.src
	mat := float64(src.materialized)
	admit := lt.self["NewPlan"] - src.materializeTime.Seconds()
	simS := lt.total["Simulate"]
	var maxEv, sumEv float64
	for _, m := range res.Machines {
		ev := float64(m.Events)
		sumEv += ev
		maxEv = max(maxEv, ev)
	}
	m := map[string]float64{
		"workload.compile_s":         lt.total["Compile"],
		"workload.params_calls":      float64(src.params),
		"workload.materialize_calls": mat,
		"workload.materialize_s":     src.materializeTime.Seconds(),
		"admit.s":                    admit,
		"admit.watermark_skips":      float64(src.params - src.materialized),
		"sim.s":                      simS,
		"sim.events":                 float64(res.Events),
		"sim.jobs":                   float64(res.Jobs),
	}
	if mat > 0 {
		m["admit.us_per_attempt"] = admit / mat * 1e6
		m["admit.useful_ratio"] = float64(res.Admitted) / mat
	}
	if res.Events > 0 {
		m["sim.ns_per_event"] = simS / float64(res.Events) * 1e9
		m["sim.machine_event_skew"] = maxEv / (sumEv / float64(len(res.Machines)))
	}
	return m
}

// runFlashAdmit compiles the flash-crash spec, admits and simulates it.
func runFlashAdmit(b *bench) (sample, error) {
	f := flashAdmit
	c0 := procCPU()
	src, err := f.compile(b)
	if err != nil {
		return sample{}, err
	}
	setup := procCPU() - c0
	cfg := f.config(b)
	cfg.Source = src
	fr, err := simulateFleet(b, cfg)
	if err != nil {
		return sample{}, err
	}
	checkFleet(b, f, fr.res)
	if err := b.checkDigest(fr.res); err != nil {
		return sample{}, err
	}
	s := fleetSample(fr, setup)
	if b.rec != nil {
		s.layers = fleetLayers(timesOf(b.rec.runSpans(b.rec.run)), fr)
		s.extra = func(string) (map[string]float64, error) {
			return workerPair(b, cfg, fr.plan, fr.res)
		}
	}
	return s, nil
}

// workerPair simulates plan again at the timed worker count and a copy of it
// at GOMAXPROCS workers, three times each, alternating, checks that every
// run gives the traced iteration's result, and returns the median parallel
// speedup and the utilization it implies.
func workerPair(b *bench, cfg cluster.Config, plan *cluster.Plan, want *cluster.Result) (map[string]float64, error) {
	cfg.Workers = b.wide
	wide, err := cluster.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	var speedups []float64
	for i := 0; i < 3; i++ {
		var secs [2]float64
		for j, p := range []*cluster.Plan{plan, wide} {
			t := time.Now()
			res, err := p.Simulate()
			secs[j] = time.Since(t).Seconds()
			if err != nil {
				return nil, err
			}
			if err := b.checkEqual(fmt.Sprintf("Workers=%d rerun", p.Config().Workers), res, want); err != nil {
				return nil, err
			}
		}
		speedups = append(speedups, secs[0]/secs[1])
	}
	speedup := median(speedups)
	return map[string]float64{
		"fanout.speedup":     speedup,
		"fanout.utilization": speedup / float64(b.wide),
	}, nil
}

// checkEqual checks that got and want have the same digest.
func (b *bench) checkEqual(what string, got, want any) error {
	dg, err := digest(got)
	if err != nil {
		return err
	}
	dw, err := digest(want)
	if err != nil {
		return err
	}
	b.chk.check(dg == dw, "%s: %s digest %s, want %s", b.w.name, what, dg, dw)
	return nil
}

// replayResult is what replay-traced digests: the fleet result and the
// merged summary of the per-machine trace files.
type replayResult struct {
	Result *cluster.Result
	Merged trace.MergedSummary
}

// runReplay records the open-close population as an .rtk image, decodes
// it, replays it with the file-backed flight recorder on, and reads every
// machine's trace back through ReadFile, Analyze and Merge.
func runReplay(b *bench) (sample, error) {
	f := replayedOpen
	c0 := procCPU()
	src, err := f.compile(b)
	if err != nil {
		return sample{}, err
	}
	rec := src.Trace(replayTicks)
	var buf bytes.Buffer
	id := b.rec.begin("Write", b.root)
	err = workload.Write(&buf, rec)
	b.rec.end(id)
	if err != nil {
		return sample{}, err
	}
	id = b.rec.begin("Decode", b.root)
	dec, err := workload.Decode(buf.Bytes())
	b.rec.end(id)
	if err != nil {
		return sample{}, err
	}
	setup := procCPU() - c0

	cfg := f.config(b)
	cfg.Source = workload.NewReplay(dec)
	cfg.Seed = dec.Meta.Seed
	cfg.Horizon = dec.Meta.Horizon
	cfg.TraceDir = b.dir
	fr, err := simulateFleet(b, cfg)
	if err != nil {
		return sample{}, err
	}
	merged, rl, err := readBack(b, cfg)
	if err != nil {
		return sample{}, err
	}

	res := fr.res
	checkFleet(b, f, res)
	b.chk.check(merged.Files == f.machines, "replay-traced: merged %d trace files, want %d", merged.Files, f.machines)
	b.chk.check(merged.Jobs == res.Jobs && merged.Misses == res.Misses,
		"replay-traced: merged trace jobs/misses %d/%d, result %d/%d", merged.Jobs, merged.Misses, res.Jobs, res.Misses)
	b.chk.check(merged.Lost == 0, "replay-traced: %d trace records lost", merged.Lost)
	if err := b.checkDigest(replayResult{Result: res, Merged: merged}); err != nil {
		return sample{}, err
	}

	s := fleetSample(fr, setup)
	if b.rec != nil {
		lt := timesOf(b.rec.runSpans(b.rec.run))
		s.layers = fleetLayers(lt, fr)
		s.layers["workload.rtk_encode_s"] = lt.total["Write"]
		s.layers["workload.rtk_decode_s"] = lt.total["Decode"]
		s.layers["workload.rtk_bytes"] = float64(buf.Len())
		s.layers["trace.read_s"] = lt.total["ReadFile"]
		s.layers["trace.analyze_s"] = lt.total["Analyze"]
		s.layers["trace.merge_s"] = lt.total["Merge"]
		for k, v := range rl {
			s.layers[k] = v
		}
		s.extra = func(dir string) (map[string]float64, error) {
			return replayExtra(b, cfg, src, res, dir)
		}
	}
	return s, nil
}

// readBack is the rtseed-cluster -replay -trace-dir read-back: every
// machine's trace file through trace.ReadFile and trace.Analyze, then
// trace.Merge. On traced iterations it also returns the trace-layer counts.
func readBack(b *bench, cfg cluster.Config) (trace.MergedSummary, map[string]float64, error) {
	var analyses []*trace.Analysis
	var allocMB, fileBytes, records, lost float64
	for i := 0; i < cfg.Machines; i++ {
		path := filepath.Join(cfg.TraceDir, cluster.TraceFileName(i))
		var before runtime.MemStats
		if b.rec != nil {
			st, err := os.Stat(path)
			if err != nil {
				return trace.MergedSummary{}, nil, err
			}
			fileBytes += float64(st.Size())
			runtime.ReadMemStats(&before)
		}
		id := b.rec.begin("ReadFile", b.root)
		tr, err := trace.ReadFile(path)
		b.rec.end(id)
		if err != nil {
			return trace.MergedSummary{}, nil, err
		}
		if b.rec != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			records += float64(len(tr.Records))
			lost += float64(tr.TotalLost())
		}
		id = b.rec.begin("Analyze", b.root)
		analyses = append(analyses, trace.Analyze(tr))
		b.rec.end(id)
	}
	id := b.rec.begin("Merge", b.root)
	merged := trace.Merge(analyses...)
	b.rec.end(id)
	return merged, map[string]float64{
		"trace.read_alloc_mb": allocMB,
		"trace.file_bytes":    fileBytes,
		"trace.records":       records,
		"trace.lost":          lost,
	}, nil
}

// replayExtra runs replay-traced's determinism checks. The population
// compiled from the spec, simulated without the recorder, must give the
// replayed result; the replay re-simulated at GOMAXPROCS workers must too,
// and the pair yields fanout.speedup. The
// recorder-on over recorder-off simulation time is trace.emit_overhead,
// the median of three alternating pairs.
func replayExtra(b *bench, cfg cluster.Config, src *workload.SpecSource, want *cluster.Result, dir string) (map[string]float64, error) {
	off := cfg
	off.Source, off.TraceDir = src, ""
	offPlan, err := cluster.NewPlan(off)
	if err != nil {
		return nil, err
	}
	cfg.TraceDir = filepath.Join(dir, "on")
	onPlan, err := cluster.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return nil, err
	}
	var ratios, onTimes []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		resOn, err := onPlan.Simulate()
		on := time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		resOff, err := offPlan.Simulate()
		offS := time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if err := b.checkEqual("compiled-spec result", resOff, want); err != nil {
				return nil, err
			}
			if err := b.checkEqual("recorder-on rerun", resOn, want); err != nil {
				return nil, err
			}
		}
		ratios = append(ratios, on/offS)
		onTimes = append(onTimes, on)
	}

	cfg.Workers = b.wide
	cfg.TraceDir = filepath.Join(dir, "wide")
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return nil, err
	}
	wide, err := cluster.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	par, err := wide.Simulate()
	tPar := time.Since(t).Seconds()
	if err != nil {
		return nil, err
	}
	if err := b.checkEqual(fmt.Sprintf("Workers=%d result", b.wide), par, want); err != nil {
		return nil, err
	}
	speedup := median(onTimes) / tPar
	return map[string]float64{
		"trace.emit_overhead": median(ratios),
		"fanout.speedup":      speedup,
		"fanout.utilization":  speedup / float64(b.wide),
	}, nil
}
