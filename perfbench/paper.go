package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specsched"
)

// paperRepro regenerates every simulating Sweep.Report over the 36-workload
// suite through one Sweep with two jobs — the repository's headline paper
// reproduction, scaled down. The seed permutes the report order, which
// moves the reuse pattern of the shared report cache and each report's
// grid barrier; the simulated cells, and so every digest, are the same for
// every seed.
type paperRepro struct {
	b     *bench
	win   windows
	order []string
}

// setupReps is how many set-up samples a round takes before each report.
const setupReps = 2

// setupProbeEnv carries a sweep spec to a set-up probe process.
const setupProbeEnv = "PERFBENCH_SETUP_PROBE"

// maybeSetupProbe turns this process into a set-up probe when
// setupProbeEnv is set: it decodes the spec as strictly as a -spec run
// does, constructs the sweep, and exits.
func maybeSetupProbe() {
	js := os.Getenv(setupProbeEnv)
	if js == "" {
		return
	}
	var spec specsched.SweepSpec
	dec := json.NewDecoder(strings.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "setup probe:", err)
		os.Exit(1)
	}
	if _, err := specsched.NewSweepFromSpec(spec); err != nil {
		fmt.Fprintln(os.Stderr, "setup probe:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// setupProbe times one set-up probe process from start to exit.
func setupProbe(ctx context.Context, specJSON []byte) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), setupProbeEnv+"="+string(specJSON))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return time.Since(t0), nil
}

func newPaperRepro(b *bench) *paperRepro {
	order := append([]string(nil), reportNames...)
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &paperRepro{b: b, win: b.windowsFor("paper_repro"), order: order}
}

func (p *paperRepro) spec() specsched.SweepSpec {
	w, m := p.win.warmup, p.win.measure
	return specsched.SweepSpec{Jobs: 2, Warmup: &w, Measure: &m}
}

func (p *paperRepro) cellKey(config, wl string) string {
	return fmt.Sprintf("paper/%s/%s/%s", p.win, config, wl)
}

func (p *paperRepro) round(ctx context.Context, tr *tracer, a *acc) (round, error) {
	r := round{baseIPC: map[baseCell]float64{}}
	traced := tr != nil

	// Progress arrives on the pool's collector goroutine.
	var mu sync.Mutex
	var parent int            // span of the report in flight
	var reportStart time.Time // when it was issued
	var firstSeen bool        // whether it has delivered a cell yet
	var busy float64          // Σ cell seconds of the report in flight
	onProgress := func(pr specsched.Progress) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		if pr.Err != nil {
			r.failed++
			r.jobs = append(r.jobs, math.Inf(1))
		} else {
			r.jobs = append(r.jobs, ms(pr.Elapsed))
			r.committed += p.win.measure // Report does not return per-cell runs
		}
		if traced {
			tr.add(parent, "core", "cell", pr.Cell.String(), now.Add(-pr.Elapsed), now)
			a.add("cell_ms", ms(pr.Elapsed))
			busy += pr.Elapsed.Seconds()
			if !firstSeen {
				firstSeen = true
				a.add("first_cell_ms", ms(now.Sub(reportStart)))
			}
		}
	}

	// Set-up: what a paper reproduction pays before its first cell —
	// starting the process, decoding and validating its sweep spec, and
	// constructing the sweep. Sampled as a fresh process each time (see
	// maybeSetupProbe), twice before every report and outside the timed
	// reports; a single in-process construction takes microseconds and
	// depends on the process's memory layout, so one process is one sample.
	specJSON, err := json.Marshal(p.spec())
	if err != nil {
		return r, err
	}
	sw, err := specsched.NewSweepFromSpec(p.spec(), specsched.SweepProgress(onProgress))
	if err != nil {
		return r, err
	}
	setupBatch := func() error {
		for i := 0; i < setupReps; i++ {
			d, err := setupProbe(ctx, specJSON)
			if err != nil {
				return err
			}
			r.setups = append(r.setups, d.Seconds())
		}
		return nil
	}

	root := tr.begin(0, "specsched", "round", "paper_repro")
	for _, name := range p.order {
		if err := setupBatch(); err != nil {
			return r, err
		}
		sp := tr.begin(root, "experiments", "report", name)
		mu.Lock()
		parent, reportStart, firstSeen, busy = sp, time.Now(), false, 0
		mu.Unlock()
		watch := startWatch()
		u0 := sw.SimulatedUOps()
		out, err := sw.Report(ctx, name)
		wall, cpu := watch.stop()
		tr.end(sp)
		r.wall += wall
		r.cpu += cpu
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		if err != nil {
			// Its failed cells already count as failed jobs; the error in
			// place of the text also fails the report's golden check.
			out = "error: " + err.Error()
		}
		p.b.chk.check(fmt.Sprintf("report/%s/%s", p.win, name), textDigest(out))
		if traced {
			executed := float64(sw.SimulatedUOps()-u0) / float64(p.win.warmup+p.win.measure)
			a.add("report_s."+name, wall.Seconds())
			a.add("executed_cells", executed)
			if executed > 0 {
				mu.Lock()
				a.add("cell_busy_s", busy)
				mu.Unlock()
				a.add("pool_capacity_s", 2*wall.Seconds())
			}
		}
	}
	tr.end(root)

	for _, run := range sw.Snapshot() {
		if !p.b.chk.checkRun(p.cellKey(run.Config, run.Workload), run) {
			r.failed++
		}
		if run.Config == "Baseline_0" {
			r.baseIPC[baseCell{run.Workload, 0}] = run.IPC() // one seed: pooled = the cell
		}
		if traced {
			addRunCounters(a, run)
		}
	}
	if traced {
		a.add("uops", float64(sw.SimulatedUOps()))
		a.add("traced_round", 1)
	}
	return r, nil
}

// probe counts each report's demanded grid on a fresh sweep with minimal
// windows (reuse is then 1 − executed/demanded cells), and times a seeded
// sample of the snapshot's cells through Simulator.Run.
func (p *paperRepro) probe(ctx context.Context, a *acc) error {
	for _, name := range reportNames {
		var n atomic.Int64
		sw := specsched.NewSweep(specsched.SweepJobs(2), specsched.Warmup(64), specsched.Measure(64),
			specsched.SweepProgress(func(specsched.Progress) { n.Add(1) }))
		if _, err := sw.Report(ctx, name); err != nil {
			return fmt.Errorf("report %s: %w", name, err)
		}
		a.add("demanded_cells", float64(n.Load()))
	}
	rng := rand.New(rand.NewSource(p.b.seed))
	configs := []string{"Baseline_0", "SpecSched_4", "SpecSched_4_Crit", "SpecSched_4_Shift"}
	wls := specsched.WorkloadNames()
	var cells []probeCell
	for i := 0; i < 8; i++ {
		c, wl := configs[i%len(configs)], wls[rng.Intn(len(wls))]
		cells = append(cells, probeCell{p.cellKey(c, wl), specsched.NewSimulator(
			specsched.WithPreset(c), specsched.WithWorkload(wl),
			specsched.Warmup(p.win.warmup), specsched.Measure(p.win.measure))})
	}
	return probeCore(ctx, p.b.chk, a, cells)
}

// golden runs every report once; the snapshot and report texts are the
// whole universe, since the seed only reorders reports.
func (p *paperRepro) golden(ctx context.Context) error {
	_, err := p.round(ctx, nil, nil)
	return err
}
