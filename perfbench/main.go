// Command perfbench is the repository's benchmark. It runs one of three batch
// workloads, each computing one complete result through the public functions
// of the rtseed layers, repeats it for a fixed number of seconds after an
// untimed warm-up, checks every result, and prints the end-to-end metrics
// (untraced) or the per-layer metrics (traced) as one JSON object on the
// last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload replay-traced --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rtseed/internal/overhead"
)

// workloadDef is one batch workload.
type workloadDef struct {
	name string
	// defaultSeed is the seed the committed golden digests were taken at.
	defaultSeed uint64
	// run computes one complete result; the harness times the call as
	// cpu_s.
	run func(b *bench) (sample, error)
}

var workloads = []*workloadDef{
	{name: "flash-admit", defaultSeed: 1, run: runFlashAdmit},
	{name: "paper-sweep", defaultSeed: paperSeed, run: runPaperSweep},
	{name: "replay-traced", defaultSeed: 1, run: runReplay},
}

// timedWorkers is the Workers setting of every timed simulation and sweep.
// The benchmark runs on a few CPUs of a shared host, where a phase that
// keeps every CPU busy measures how the host schedules it more than the
// program: in sets of ten runs, the phases run on GOMAXPROCS workers
// spread by more than 25% while the single-goroutine phases stayed within
// it. The fan-out layer is measured apart, by the traced run's pair of
// simulations at Workers=1 and at GOMAXPROCS.
const timedWorkers = 1

// populations is how many inputs one run draws from its seed. Iteration i
// uses population i mod populations, whose seed is the run's seed plus
// i mod populations times popStride; population 0 is the run's seed itself.
// A run makes at least one iteration per population, and the metrics that
// a population fixes (admitted clients, allocation, peak memory, met
// deadlines) are averaged over populations, so runs at different seeds
// spread less than a single draw would: 600 admitted clients out of 20,000
// vary by a few percent from draw to draw.
const (
	populations = 6
	popStride   = 1 << 32
)

// bench is the state one workload run shares across its iterations.
type bench struct {
	w       *workloadDef
	runSeed uint64
	// pop is the current population and seed its seed.
	pop  int
	seed uint64
	// workers is timedWorkers; wide is GOMAXPROCS, the worker count the
	// traced run's fan-out pair compares it with.
	workers, wide int
	// dir is a scratch directory private to the current iteration.
	dir string
	// rec is nil on untraced iterations; root is the iteration's root span.
	rec  *recorder
	root int
	chk  *checker
	// digests holds each population's result digest from its first
	// iteration.
	digests map[int]string
	// figs holds the last untraced paper-sweep result, which the traced
	// iteration's per-cell measurements are checked against.
	figs []overhead.FigureData
}

// sample is what a workload reports about one iteration.
type sample struct {
	// setup is the CPU time before the first admission or simulation call.
	setup time.Duration
	// sim is the CPU time inside Plan.Simulate or the overhead sweep.
	sim time.Duration
	// jobs is the number of simulated jobs completed.
	jobs int
	// admitted counts admitted clients (see README.md for paper-sweep).
	admitted int
	// met is the share of jobs that met their deadline.
	met float64
	// layers holds per-layer metrics; traced iterations only.
	layers map[string]float64
	// extra, set on traced iterations, runs the determinism checks that
	// need a second plan or sweep, after the iteration's clock has stopped.
	// It is given a scratch directory of its own.
	extra func(dir string) (map[string]float64, error)
}

// iteration is one timed call of a workload's run function.
type iteration struct {
	sample
	pop int
	// wall and cpu are the iteration's wall-clock and CPU time.
	wall, cpu time.Duration
	host      hostDelta
	// ref holds the refWork CPU times taken just before the iteration.
	ref []time.Duration
	// rssMB is the peak resident set size during the iteration.
	rssMB float64
}

type metric struct {
	name, unit string
}

// endToEnd lists the untraced run's metrics, in output order.
var endToEnd = []metric{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_jobs_per_cpu_s", "jobs/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"admitted_clients", "count"},
	{"deadline_met_ratio", "ratio"},
	{"check_pass_ratio", "ratio"},
}

// perLayer lists the traced run's metrics, in output order. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metric{
	{"workload.compile_s", "s"},
	{"workload.rtk_encode_s", "s"},
	{"workload.rtk_decode_s", "s"},
	{"workload.rtk_bytes", "bytes"},
	{"workload.params_calls", "count"},
	{"workload.materialize_calls", "count"},
	{"workload.materialize_s", "s"},
	{"admit.s", "s"},
	{"admit.us_per_attempt", "us"},
	{"admit.useful_ratio", "ratio"},
	{"admit.watermark_skips", "count"},
	{"sim.s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.jobs", "count"},
	{"sim.machine_event_skew", "ratio"},
	{"fanout.speedup", "ratio"},
	{"fanout.utilization", "ratio"},
	{"overhead.cell_s.p50", "s"},
	{"overhead.cell_s.max", "s"},
	{"overhead.ms_per_job.np4", "ms"},
	{"overhead.ms_per_job.np228", "ms"},
	{"trace.emit_overhead", "ratio"},
	{"trace.read_s", "s"},
	{"trace.analyze_s", "s"},
	{"trace.merge_s", "s"},
	{"trace.read_alloc_mb", "MB"},
	{"trace.file_bytes", "bytes"},
	{"trace.records", "count"},
	{"trace.lost", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"span.overhead_s", "s"},
	{"host.ref_ms", "ms"},
}

type options struct {
	workload string
	seed     uint64
	seedSet  bool
	seconds  int
	trace    bool
	workdir  string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: flash-admit, paper-sweep or replay-traced")
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed (default: the workload's own, 1 for the fleets and the overhead sweep's default for paper-sweep)")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds to measure after the warm-up")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for trace files and the span dump")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var w *workloadDef
	for _, c := range workloads {
		if c.name == o.workload {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if !o.seedSet {
		o.seed = w.defaultSeed
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s workers=%d workload=%s seed=%d seconds=%d trace=%t\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), timedWorkers, w.name, o.seed, o.seconds, o.trace)
	out, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure warms the workload up, runs it for o.seconds, and returns the
// metrics. An iteration that returns an error ends the run with that error.
func measure(w *workloadDef, o options) (*result, error) {
	b := &bench{w: w, runSeed: o.seed, workers: timedWorkers, wide: runtime.GOMAXPROCS(0), chk: &checker{}, digests: map[int]string{}}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	b.setPopulation(0)
	if _, err := iterate(b, nil, o.workdir); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var plain, traced []iteration
	var extra func(string) (map[string]float64, error)
	// An untraced run covers every population at least once. A traced run's
	// per-layer medians need no balance across populations, and its
	// iterations cost twice as much, so it stops at the deadline.
	minIters := populations
	if rec != nil {
		minIters = 1
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		b.setPopulation(i % populations)
		it, err := iterate(b, nil, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		plain = append(plain, it)
		if rec == nil {
			continue
		}
		it, err = iterate(b, rec, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		// Only the last traced iteration's extra checks run; dropping the
		// others lets their plans be collected.
		extra, it.extra = it.extra, nil
		traced = append(traced, it)
	}

	e2e := endToEndValues(plain, b.chk, true)
	raw := endToEndValues(plain, b.chk, false)
	printTable("end-to-end", endToEnd, e2e)
	fmt.Printf("  %-28s %14.6g %s (reported as deadline_met_ratio)\n", "deadline_miss_rate", 1-e2e["deadline_met_ratio"], "ratio")
	fmt.Printf("  %-28s %14.6g %s (reported as check_pass_ratio)\n", "check_fail_ratio", 1-e2e["check_pass_ratio"], "ratio")
	fmt.Printf("  iterations: %d untraced, %d traced\n", len(plain), len(traced))
	fmt.Printf("  refWork median %.6g ms; unscaled: cpu_s %.6g s, setup_s %.6g s, sim_jobs_per_cpu_s %.6g jobs/s; median wall %.6g s\n",
		medianRefMs(plain), raw["cpu_s"], raw["setup_s"], raw["sim_jobs_per_cpu_s"], medianWall(plain))

	metrics, list := e2e, endToEnd
	if rec != nil {
		layers, err := layerValues(b, rec, plain, traced, extra, o.workdir)
		if err != nil {
			return nil, err
		}
		metrics, list = layers, perLayer
		printTable("per-layer", perLayer, layers)
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := rec.writeJSONLines(path); err != nil {
			return nil, err
		}
		fmt.Printf("  spans: %s\n", path)
	}
	out := &result{
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted,
		Failed:    b.chk.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range list {
		out.Metrics[m.name] = value{Value: metrics[m.name], Unit: m.unit}
	}
	return out, nil
}

func (b *bench) setPopulation(p int) {
	b.pop = p
	b.seed = b.runSeed + uint64(p)*popStride
}

// iterate runs one iteration in a fresh scratch directory, after a forced
// collection so that every iteration starts from the same heap.
func iterate(b *bench, rec *recorder, workdir string) (iteration, error) {
	dir, err := os.MkdirTemp(workdir, "iter-")
	if err != nil {
		return iteration{}, err
	}
	defer os.RemoveAll(dir)
	b.dir, b.rec, b.root = dir, rec, -1
	if rec != nil {
		rec.nextRun()
	}
	runtime.GC()
	ref := sampleRef()
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return iteration{}, err
	}
	h0 := snapHost()
	b.root = rec.begin(b.w.name, -1)
	c0 := procCPU()
	t0 := time.Now()
	s, err := b.w.run(b)
	wall := time.Since(t0)
	cpu := procCPU() - c0
	rec.end(b.root)
	h1 := snapHost()
	if err != nil {
		b.chk.check(false, "%s returned %v", b.w.name, err)
		return iteration{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return iteration{}, err
	}
	host := h0.to(h1)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%t pop=%d wall=%.4fs cpu=%.4fs setup=%.4fs sim=%.4fs jobs=%d faults=%d ref=%v\n",
		b.w.name, rec != nil, b.pop, wall.Seconds(), cpu.Seconds(), s.setup.Seconds(), s.sim.Seconds(), s.jobs, host.faults, ref)
	return iteration{sample: s, pop: b.pop, wall: wall, cpu: cpu, host: host, ref: ref, rssMB: rss}, nil
}

// refScale is the factor that brings it's CPU times to the reference
// speed: refNominal over the median refWork time taken just before it.
func (it iteration) refScale() float64 {
	v := make([]float64, len(it.ref))
	for i, d := range it.ref {
		v[i] = d.Seconds()
	}
	return refNominal.Seconds() / median(v)
}

// medianRefMs is the median of the refWork times taken before its, in ms.
func medianRefMs(its []iteration) float64 {
	var v []float64
	for _, it := range its {
		for _, d := range it.ref {
			v = append(v, d.Seconds()*1e3)
		}
	}
	return median(v)
}

// endToEndValues takes the CPU times as medians over all iterations, each
// iteration's times brought to the reference speed by its refScale when
// scaled is set, and the metrics a population fixes as the mean over
// populations of each population's median.
func endToEndValues(its []iteration, chk *checker, scaled bool) map[string]float64 {
	k := func(it iteration) float64 {
		if scaled {
			return it.refScale()
		}
		return 1
	}
	overAll := func(f func(iteration) float64) float64 {
		v := make([]float64, len(its))
		for i, it := range its {
			v[i] = f(it)
		}
		return median(v)
	}
	perPop := func(f func(iteration) float64) float64 {
		var byPop [populations][]float64
		for _, it := range its {
			byPop[it.pop] = append(byPop[it.pop], f(it))
		}
		sum, n := 0.0, 0
		for _, v := range byPop {
			if len(v) > 0 {
				sum += median(v)
				n++
			}
		}
		return sum / float64(n)
	}
	return map[string]float64{
		"cpu_s":              overAll(func(it iteration) float64 { return it.cpu.Seconds() * k(it) }),
		"setup_s":            overAll(func(it iteration) float64 { return it.setup.Seconds() * k(it) }),
		"sim_jobs_per_cpu_s": overAll(func(it iteration) float64 { return float64(it.jobs) / (it.sim.Seconds() * k(it)) }),
		"alloc_mb":           perPop(func(it iteration) float64 { return it.host.allocMB }),
		"peak_rss_mb":        perPop(func(it iteration) float64 { return it.rssMB }),
		"admitted_clients":   perPop(func(it iteration) float64 { return float64(it.admitted) }),
		"deadline_met_ratio": perPop(func(it iteration) float64 { return it.met }),
		"check_pass_ratio":   1 - float64(chk.failed)/float64(chk.attempted),
	}
}

// layerValues takes the median of every per-layer metric over the traced
// iterations, the garbage-collector figures over the untraced ones, runs the
// last traced iteration's extra checks, and reports the tracing overhead as
// the difference of the traced and untraced median wall times.
func layerValues(b *bench, rec *recorder, plain, traced []iteration, extra func(string) (map[string]float64, error), workdir string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		var v []float64
		for _, it := range traced {
			if x, ok := it.layers[m.name]; ok {
				v = append(v, x)
			}
		}
		if len(v) > 0 {
			out[m.name] = median(v)
		}
	}
	gc := func(f func(hostDelta) float64) float64 {
		v := make([]float64, len(plain))
		for i, it := range plain {
			v[i] = f(it.host)
		}
		return median(v)
	}
	out["gc.cycles"] = gc(func(h hostDelta) float64 { return h.gcCycles })
	out["gc.pause_ms"] = gc(func(h hostDelta) float64 { return h.pauseMs })
	out["gc.cpu_frac"] = gc(func(h hostDelta) float64 { return h.gcCPU })

	out["span.overhead_s"] = medianWall(traced) - medianWall(plain)
	out["host.ref_ms"] = medianRefMs(plain)

	if extra != nil {
		dir, err := os.MkdirTemp(workdir, "extra-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		b.rec, b.root = nil, -1
		more, err := extra(dir)
		if err != nil {
			b.chk.check(false, "%s determinism checks returned %v", b.w.name, err)
			return nil, err
		}
		for k, v := range more {
			out[k] = v
		}
	}
	return out, nil
}

// medianWall is the median wall-clock time of its.
func medianWall(its []iteration) float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = it.wall.Seconds()
	}
	return median(v)
}

func printTable(title string, list []metric, vals map[string]float64) {
	fmt.Printf("%s:\n", title)
	for _, m := range list {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
