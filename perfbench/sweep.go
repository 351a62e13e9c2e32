package main

import (
	"fmt"
	"sort"
	"time"

	"rtseed/internal/assign"
	"rtseed/internal/core"
	"rtseed/internal/engine"
	"rtseed/internal/kernel"
	"rtseed/internal/machine"
	"rtseed/internal/overhead"
	"rtseed/internal/sweep"
	"rtseed/internal/task"
)

const (
	// paperJobs is the paper's job count per measurement.
	paperJobs = 100
	// paperSeed is overhead.Config's default machine-jitter seed.
	paperSeed = 0x5eed
	// paperAllowance is WindupBudget − WindupExec at the paper's settings:
	// the overhead allowance folded into the WCET that Δm + Δe must fit for
	// the wind-up part to meet its deadline.
	paperAllowance = 100 * time.Millisecond
)

// cell is one (load, policy, np) point of the Figs. 10-13 sweep.
type cell struct {
	load machine.Load
	pol  assign.Policy
	np   int
}

// paperCells lists the sweep's cells in overhead.SweepAll's order.
func paperCells() []cell {
	var cells []cell
	for _, load := range machine.Loads() {
		for _, pol := range assign.Policies() {
			for _, np := range overhead.NumPartsSweep() {
				cells = append(cells, cell{load: load, pol: pol, np: np})
			}
		}
	}
	return cells
}

// buildCells constructs every cell's machine, kernel, task, assignment and
// RT-Seed process with the constructors overhead.Run calls before its kernel
// runs. The sweep has no set-up phase of its own, so this per-cell
// construction is what paper-sweep reports as set-up.
func buildCells(b *bench, cells []cell) error {
	topo := machine.XeonPhi3120A()
	for _, c := range cells {
		mach, err := machine.New(topo, c.load, machine.DefaultCostModel(), b.seed)
		if err != nil {
			return err
		}
		k := kernel.New(engine.New(), mach)
		tk := task.Uniform("tau1", 250*time.Millisecond, 150*time.Millisecond, time.Second, c.np, time.Second)
		cpus, err := assign.HWThreads(topo, c.pol, c.np)
		if err != nil {
			return err
		}
		if _, err := core.NewProcess(k, core.Config{
			Task:              tk,
			MandatoryPriority: 90,
			OptionalCPUs:      cpus,
			OptionalDeadline:  time.Second - 250*time.Millisecond,
			Jobs:              paperJobs,
		}); err != nil {
			return err
		}
	}
	return nil
}

// point returns the figure point of kind at cell c.
func point(figs []overhead.FigureData, kind overhead.Kind, c cell) (time.Duration, error) {
	if f := overhead.ByKindLoad(figs, kind, c.load); f != nil {
		if s := f.SeriesFor(c.pol); s != nil {
			for _, p := range s.Points {
				if p.NumParts == c.np {
					return p.Mean, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("paper-sweep: no %v point for %v/%v/np=%d", kind, c.load, c.pol, c.np)
}

// runPaperSweep builds the cells (set-up), then runs overhead.SweepAll on
// untraced iterations, or the same cells through sweep.Map and overhead.Run
// with one span per cell on traced ones.
func runPaperSweep(b *bench) (sample, error) {
	cells := paperCells()
	c0 := procCPU()
	id := b.rec.begin("CellSetup", b.root)
	err := buildCells(b, cells)
	b.rec.end(id)
	if err != nil {
		return sample{}, err
	}
	s := sample{setup: procCPU() - c0, jobs: len(cells) * paperJobs}
	if b.rec != nil {
		return tracedSweep(b, cells, s)
	}

	c := procCPU()
	figs, err := overhead.SweepAll(overhead.SweepConfig{Jobs: paperJobs, Seed: b.seed, Workers: b.workers})
	s.sim = procCPU() - c
	if err != nil {
		return sample{}, err
	}
	b.chk.check(len(figs) == len(machine.Loads())*len(overhead.Kinds()), "paper-sweep: %d figures", len(figs))
	met := 0
	for _, c := range cells {
		var sum time.Duration
		for _, kind := range overhead.Kinds() {
			mean, err := point(figs, kind, c)
			if err != nil {
				return sample{}, err
			}
			b.chk.check(mean > 0, "paper-sweep: %v mean %v at %v/%v/np=%d", kind, mean, c.load, c.pol, c.np)
			if kind == overhead.DeltaM || kind == overhead.DeltaE {
				sum += mean
			}
		}
		if sum <= paperAllowance {
			met++
		}
	}
	b.chk.check(met == len(cells), "paper-sweep: Δm+Δe exceeds the %v allowance in %d of %d cells", paperAllowance, len(cells)-met, len(cells))
	if err := b.checkDigest(figs); err != nil {
		return sample{}, err
	}
	// Every cell is one single-task set run to completion: the sweep admits
	// all of them by construction.
	s.admitted = len(cells)
	s.met = float64(met) / float64(len(cells))
	b.figs = figs
	return s, nil
}

// tracedSweep times every cell through overhead.Run on the sweep's worker
// pool and checks each cell's means against the last untraced SweepAll.
func tracedSweep(b *bench, cells []cell, s sample) (sample, error) {
	durs := make([]float64, len(cells))
	id := b.rec.begin("sweep.Map", b.root)
	c0 := procCPU()
	meas, err := sweep.Map(b.workers, len(cells), func(i int) (*overhead.Measurement, error) {
		cid := b.rec.begin("overhead.Run", id)
		defer b.rec.end(cid)
		c := cells[i]
		ct := time.Now()
		m, err := overhead.Run(overhead.Config{Load: c.load, Policy: c.pol, NumParts: c.np, Jobs: paperJobs, Seed: b.seed})
		durs[i] = time.Since(ct).Seconds()
		return m, err
	})
	s.sim = procCPU() - c0
	b.rec.end(id)
	if err != nil {
		return sample{}, err
	}
	for i, c := range cells {
		for _, kind := range overhead.Kinds() {
			want, err := point(b.figs, kind, c)
			if err != nil {
				return sample{}, err
			}
			got := meas[i].Mean(kind)
			b.chk.check(got == want, "paper-sweep: overhead.Run %v mean %v at %v/%v/np=%d, SweepAll %v", kind, got, c.load, c.pol, c.np, want)
		}
	}

	var np4, np228 []float64
	for i, c := range cells {
		switch c.np {
		case 4:
			np4 = append(np4, durs[i]/paperJobs*1e3)
		case 228:
			np228 = append(np228, durs[i]/paperJobs*1e3)
		}
	}
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	s.layers = map[string]float64{
		"overhead.cell_s.p50":       median(durs),
		"overhead.cell_s.max":       sorted[len(sorted)-1],
		"overhead.ms_per_job.np4":   median(np4),
		"overhead.ms_per_job.np228": median(np228),
	}
	seed, figs := b.seed, b.figs
	s.extra = func(string) (map[string]float64, error) { return sweepPair(b, seed, figs) }
	return s, nil
}

// sweepPair runs SweepAll at seed at GOMAXPROCS workers and at the timed
// worker count, checks both against want, and returns the parallel speedup
// and the utilization it implies.
func sweepPair(b *bench, seed uint64, want []overhead.FigureData) (map[string]float64, error) {
	var secs [2]float64
	for i, workers := range []int{b.wide, b.workers} {
		t := time.Now()
		figs, err := overhead.SweepAll(overhead.SweepConfig{Jobs: paperJobs, Seed: seed, Workers: workers})
		secs[i] = time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
		if err := b.checkEqual(fmt.Sprintf("SweepAll at Workers=%d", workers), figs, want); err != nil {
			return nil, err
		}
	}
	speedup := secs[1] / secs[0]
	return map[string]float64{
		"fanout.speedup":     speedup,
		"fanout.utilization": speedup / float64(b.wide),
	}, nil
}
