// Command rtseed-benchjson converts `go test -bench` output into a JSON
// record, the repository's perf-trajectory format: `make bench-json` writes
// results/BENCH_PR3.json and CI uploads it as an artifact, so queue- and
// kernel-hot-path regressions show up as a diff instead of an anecdote.
//
// Usage:
//
//	go test -run=NONE -bench=... -benchmem ./... | rtseed-benchjson [-o FILE] [-baseline FILE]
//
// Lines that are not benchmark results (test status, pkg headers) are
// ignored, so the raw `go test` stream can be piped in unfiltered. Repeated
// results for the same benchmark (a -count run) collapse into one entry at
// the median ns/op, with the sample count recorded. With -baseline, each
// benchmark also present in the given prior report carries its before
// median and the speedup factor, so a PR's perf claim is embedded in the
// artifact instead of living in a commit message.
//
// Trajectory mode folds the per-PR reports into one longitudinal record:
//
//	rtseed-benchjson -trajectory [-o FILE] results/BENCH_PR3.json results/BENCH_PR6.json ...
//
// Each positional argument is a prior report; its BENCH_-stripped basename
// ("PR3") becomes the point label. Points are ordered by PR number, not by
// argument order, so a lexically sorted glob (BENCH_PR12 before BENCH_PR3)
// needs no fixing up. Every benchmark that appears in any
// report gets a series of ns/op medians across the points it was measured
// at, so a hot path's history across the PR stack reads out of one file.
//
// A/B mode compares two interleaved series of runs (`make bench-ab`):
//
//	rtseed-benchjson -ab OLD.txt NEW.txt
//
// Each file is the concatenated `go test -bench` output of N runs of one
// side, in run order; the i-th result of a benchmark in OLD and in NEW form
// pair i. For every benchmark it prints the median and the interquartile
// range of the per-pair new/old ns/op ratios and how many pairs the new
// side won. Absolute ns/op drift with the host; a ratio of two binaries
// run alternately does not, so this mode reports ratios only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark measurement (the median when Samples > 1).
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the benchmark did not report
	// allocations (no -benchmem and no b.ReportAllocs).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Samples is how many result lines collapsed into this entry; omitted
	// for a single measurement.
	Samples int `json:"samples,omitempty"`
	// BaselineNsPerOp and Speedup compare against the -baseline report:
	// the prior median and baseline/current. Omitted without -baseline or
	// when the baseline lacks this benchmark.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// Report is the file layout: the benchmark list plus the context lines the
// test binary prints (goos/goarch/pkg/cpu), which make numbers comparable
// across machines.
type Report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

// parseBench reads a `go test -bench` stream and collects every benchmark
// result line, plus the goos/goarch/pkg/cpu context header. Repeated
// results collapse to their median.
func parseBench(r io.Reader) (*Report, error) {
	rep, err := parseResults(r)
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = collapse(rep.Benchmarks)
	return rep, nil
}

// parseResults is parseBench without the collapse: every result line, in
// stream order.
func parseResults(r io.Reader) (*Report, error) {
	rep := &Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "goos" || k == "goarch" || k == "pkg" || k == "cpu") {
			// Keep the first pkg; later packages in a ./... run would
			// overwrite it with less relevant values.
			if _, seen := rep.Context[k]; !seen {
				rep.Context[k] = v
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// collapse merges repeated measurements of the same benchmark (a -count or
// multi-pass run) into one entry at the median ns/op, keeping first-seen
// order. The median's own line supplies iterations and alloc stats — for an
// even sample count, the lower-ns member of the middle pair.
func collapse(in []Result) []Result {
	byName := make(map[string][]Result, len(in))
	var order []string
	for _, r := range in {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		group := byName[name]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		sort.SliceStable(group, func(i, j int) bool { return group[i].NsPerOp < group[j].NsPerOp })
		med := group[(len(group)-1)/2]
		med.Samples = len(group)
		out = append(out, med)
	}
	return out
}

// applyBaseline annotates rep's benchmarks with the prior medians from the
// baseline report.
func applyBaseline(rep *Report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("rtseed-benchjson: bad baseline %s: %v", path, err)
	}
	prior := make(map[string]float64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		prior[r.Name] = r.NsPerOp
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		if before, ok := prior[b.Name]; ok && before > 0 && b.NsPerOp > 0 {
			b.BaselineNsPerOp = before
			b.Speedup = before / b.NsPerOp
		}
	}
	return nil
}

// TrajectoryPoint is one measurement of a benchmark at one PR.
type TrajectoryPoint struct {
	Point   string  `json:"point"`
	NsPerOp float64 `json:"ns_per_op"`
}

// TrajectoryEntry is one benchmark's history across the PR reports it
// appears in. Delta is last/first ns/op over the series — below 1 the path
// got faster across the stack, above 1 it regressed.
type TrajectoryEntry struct {
	Name   string            `json:"name"`
	Series []TrajectoryPoint `json:"series"`
	Delta  float64           `json:"delta,omitempty"`
}

// Trajectory is the longitudinal file layout: the ordered point labels and
// one entry per benchmark ever measured.
type Trajectory struct {
	Points     []string          `json:"points"`
	Benchmarks []TrajectoryEntry `json:"benchmarks"`
}

// pointLabel derives a point name from a report path:
// results/BENCH_PR6.json → "PR6".
func pointLabel(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	return strings.TrimPrefix(base, "BENCH_")
}

// prNumber returns the PR number of a point label ("PR12" → 12), or -1 when
// the label carries none.
func prNumber(label string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(label, "PR"))
	if err != nil || !strings.HasPrefix(label, "PR") {
		return -1
	}
	return n
}

// buildTrajectory reads the per-PR reports in PR-number order — labels
// without a number keep their argument order, after the numbered ones — and
// merges them into one record. Benchmarks keep first-seen order across the
// reports, so the output is a pure function of the inputs.
func buildTrajectory(paths []string) (*Trajectory, error) {
	paths = append([]string(nil), paths...)
	sort.SliceStable(paths, func(i, j int) bool {
		a, b := prNumber(pointLabel(paths[i])), prNumber(pointLabel(paths[j]))
		return a >= 0 && (b < 0 || a < b)
	})
	traj := &Trajectory{}
	series := map[string][]TrajectoryPoint{}
	var order []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("rtseed-benchjson: bad report %s: %v", path, err)
		}
		label := pointLabel(path)
		traj.Points = append(traj.Points, label)
		for _, b := range rep.Benchmarks {
			if b.NsPerOp <= 0 {
				continue
			}
			if _, seen := series[b.Name]; !seen {
				order = append(order, b.Name)
			}
			series[b.Name] = append(series[b.Name], TrajectoryPoint{Point: label, NsPerOp: b.NsPerOp})
		}
	}
	for _, name := range order {
		s := series[name]
		e := TrajectoryEntry{Name: name, Series: s}
		if len(s) > 1 {
			e.Delta = s[len(s)-1].NsPerOp / s[0].NsPerOp
		}
		traj.Benchmarks = append(traj.Benchmarks, e)
	}
	return traj, nil
}

// ABRow is one benchmark's A/B comparison: over Pairs pairs of runs, the
// median and quartiles of new/old ns/op, and how many pairs new won.
type ABRow struct {
	Name           string
	Pairs          int
	Median, Q1, Q3 float64
	Wins           int
}

// compareAB pairs the i-th result of each benchmark in oldRuns with the
// i-th in newRuns, in oldRuns' first-seen benchmark order. A benchmark
// missing from either side is skipped; extra runs on one side are ignored.
func compareAB(oldRuns, newRuns []Result) []ABRow {
	byName := func(rs []Result) (map[string][]float64, []string) {
		m := map[string][]float64{}
		var order []string
		for _, r := range rs {
			if _, seen := m[r.Name]; !seen {
				order = append(order, r.Name)
			}
			m[r.Name] = append(m[r.Name], r.NsPerOp)
		}
		return m, order
	}
	olds, order := byName(oldRuns)
	news, _ := byName(newRuns)
	var rows []ABRow
	for _, name := range order {
		o, n := olds[name], news[name]
		pairs := min(len(o), len(n))
		if pairs == 0 {
			continue
		}
		row := ABRow{Name: name, Pairs: pairs}
		ratios := make([]float64, 0, pairs)
		for i := 0; i < pairs; i++ {
			if o[i] <= 0 {
				continue
			}
			ratios = append(ratios, n[i]/o[i])
			if n[i] < o[i] {
				row.Wins++
			}
		}
		if len(ratios) == 0 {
			continue
		}
		sort.Float64s(ratios)
		row.Q1, row.Median, row.Q3 = quantile(ratios, 0.25), quantile(ratios, 0.5), quantile(ratios, 0.75)
		rows = append(rows, row)
	}
	return rows
}

// quantile returns the q-quantile of the sorted, non-empty xs, linearly
// interpolated between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// writeAB prints the A/B table.
func writeAB(w io.Writer, rows []ABRow) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tpairs\tnew/old median\tIQR\tnew wins")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t[%.3f, %.3f]\t%d/%d\n", r.Name, r.Pairs, r.Median, r.Q1, r.Q3, r.Wins, r.Pairs)
	}
	return tw.Flush()
}

// runAB reads the two run files and prints their comparison.
func runAB(w io.Writer, oldPath, newPath string) error {
	var sides [2][]Result
	for i, path := range []string{oldPath, newPath} {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := parseResults(f)
		f.Close()
		if err != nil {
			return err
		}
		sides[i] = rep.Benchmarks
	}
	rows := compareAB(sides[0], sides[1])
	if len(rows) == 0 {
		return fmt.Errorf("rtseed-benchjson: no benchmark appears in both %s and %s", oldPath, newPath)
	}
	return writeAB(w, rows)
}

// parseLine decodes one result line:
//
//	BenchmarkName-8   123456   503.8 ns/op   32 B/op   1 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the name; B/op and allocs/op are
// optional.
func parseLine(line string) (Result, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, fmt.Errorf("rtseed-benchjson: short benchmark line %q", line)
	}
	res := Result{BytesPerOp: -1, AllocsPerOp: -1}
	res.Name = f[0]
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("rtseed-benchjson: bad iteration count in %q: %v", line, err)
	}
	res.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, fmt.Errorf("rtseed-benchjson: bad ns/op in %q: %v", line, err)
			}
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("rtseed-benchjson: bad B/op in %q: %v", line, err)
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, fmt.Errorf("rtseed-benchjson: bad allocs/op in %q: %v", line, err)
			}
		}
	}
	if res.NsPerOp == 0 && res.Iterations == 0 {
		return Result{}, fmt.Errorf("rtseed-benchjson: no measurements in %q", line)
	}
	return res, nil
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "prior report to compare against (adds baseline_ns_per_op and speedup)")
	trajectory := flag.Bool("trajectory", false, "merge the per-PR report files given as arguments into one longitudinal record")
	ab := flag.Bool("ab", false, "compare two files of interleaved benchmark runs, OLD and NEW, and print new/old ratios")
	flag.Parse()

	var doc any
	if *ab {
		if flag.NArg() != 2 || *trajectory || *baseline != "" || *out != "" {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson: -ab takes exactly two run files, OLD and NEW, and no other flag")
			os.Exit(2)
		}
		if err := runAB(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *trajectory {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson: -trajectory needs at least one report file argument")
			os.Exit(2)
		}
		if *baseline != "" {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson: -baseline does not apply in -trajectory mode")
			os.Exit(2)
		}
		traj, err := buildTrajectory(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
			os.Exit(1)
		}
		doc = traj
	} else {
		rep, err := parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(rep.Benchmarks) == 0 {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson: no benchmark results on stdin")
			os.Exit(1)
		}
		if *baseline != "" {
			if err := applyBaseline(rep, *baseline); err != nil {
				fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
				os.Exit(1)
			}
		}
		doc = rep
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "rtseed-benchjson:", err)
		os.Exit(1)
	}
}
