package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specsched"
)

// traceReplay records a trace corpus in set-up, runs a traces × configs ×
// seeds grid in two subprocess workers with a checkpoint, then runs the
// identical sweep again so it resumes entirely from that checkpoint. It is
// the only workload that decodes traces, crosses the worker frame
// protocol, and both writes and reads checkpoints. The seed orders the
// trace and config axes, and so the order cells reach the two workers;
// every seed simulates the same cells.
type traceReplay struct {
	b       *bench
	win     windows
	record  int64 // µ-ops recorded per trace
	corpus  []string
	configs []string
	seeds   int
}

// replayCorpus spans the suite's behaviours: pointer chasing (mcf), a
// streaming loop most of whose cycles are skipped (libquantum), branchy
// integer code (gcc), and a compute-bound kernel (hmmer).
var replayCorpus = []string{"mcf", "libquantum", "gcc", "hmmer"}

// replayConfigs join Baseline_0 on the config axis.
var replayConfigs = []string{
	"SpecSched_4", "SpecSched_4_Crit", "SpecSched_4_Filter", "SpecSched_4_Shift",
	"SpecSched_4_Ctr", "SpecSched_4_BankPred", "SpecSched_4_Combined", "SpecSched_2",
	"Baseline_4",
}

// replaySlack is recorded beyond warmup + measure: fetch runs ahead of
// commit, and a trace that runs dry inside the window fails the cell.
const replaySlack = 10000

const replayWorkers = 2

func newTraceReplay(b *bench) *traceReplay {
	t := &traceReplay{b: b, win: b.windowsFor("trace_replay"), seeds: 3} // 120 cells a round
	t.record = t.win.warmup + t.win.measure + replaySlack
	rng := rand.New(rand.NewSource(b.seed))
	for _, i := range rng.Perm(len(replayCorpus)) {
		t.corpus = append(t.corpus, replayCorpus[i])
	}
	t.configs = []string{"Baseline_0"}
	for _, i := range rng.Perm(len(replayConfigs)) {
		t.configs = append(t.configs, replayConfigs[i])
	}
	return t
}

func (t *traceReplay) cellKey(c specsched.Cell) string {
	return fmt.Sprintf("replay/%s/%s/%s#%d", t.win, c.Config, c.Workload, c.Seed)
}

// recordCorpus records and verifies every corpus trace into dir, checking
// each recording's content digest against the golden one (a mismatch makes
// the run incorrect; the sweep still runs so its cells report too).
func (t *traceReplay) recordCorpus(dir string, tr *tracer, parent int, a *acc) ([]string, error) {
	var paths []string
	for _, wl := range t.corpus {
		path := filepath.Join(dir, wl+".trace")
		t0 := time.Now()
		sp := tr.begin(parent, "traceio", "record", wl)
		err := specsched.WorkloadByName(wl).Record(path, t.record)
		tr.end(sp)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", wl, err)
		}
		sp = tr.begin(parent, "traceio", "verify", wl)
		info, err := specsched.VerifyTrace(path)
		tr.end(sp)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", wl, err)
		}
		t.b.chk.check(fmt.Sprintf("tracefile/%d/%s", t.record, wl), fmt.Sprintf("%016x/%d", info.Digest, info.UOps))
		if a != nil {
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			a.add("record_ns", float64(t1.Sub(t0).Nanoseconds()))
			a.add("verify_ns", float64(t2.Sub(t1).Nanoseconds()))
			a.add("record_uops", float64(t.record))
			a.add("trace_bytes", float64(fi.Size()))
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func (t *traceReplay) sweep(paths []string, extra ...specsched.SweepOption) *specsched.Sweep {
	opts := []specsched.SweepOption{
		specsched.SweepTraces(paths...), specsched.SweepConfigs(t.configs...), specsched.SweepSeeds(t.seeds),
		specsched.Warmup(t.win.warmup), specsched.Measure(t.win.measure),
	}
	return specsched.NewSweep(append(opts, extra...)...)
}

// checkCells verifies every returned cell and folds it into the round.
func (t *traceReplay) checkCells(r *round, a *acc, cells []specsched.Cell) {
	for _, c := range cells {
		r.attempted++
		if c.Err != nil || !t.b.chk.checkRun(t.cellKey(c), c.Run) {
			r.failed++
			continue
		}
		r.committed += c.Run.Committed
		if c.Config == "Baseline_0" {
			r.baseIPC[baseCell{c.Workload, c.Seed}] = c.Run.IPC()
		}
		if a != nil {
			addRunCounters(a, c.Run)
		}
	}
}

func (t *traceReplay) round(ctx context.Context, tr *tracer, a *acc) (round, error) {
	r := round{baseIPC: map[baseCell]float64{}}
	traced := tr != nil
	dir, err := os.MkdirTemp(t.b.dir, "corpus-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	root := tr.begin(0, "specsched", "round", "trace_replay")
	defer tr.end(root)
	t0 := time.Now()
	paths, err := t.recordCorpus(dir, tr, root, a)
	if err != nil {
		return r, err
	}
	r.setups = []float64{time.Since(t0).Seconds()}

	ckpt := filepath.Join(dir, "sweep.ckpt")
	var mu sync.Mutex
	var parent int
	var start time.Time
	var first bool
	onProgress := func(p specsched.Progress) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if p.IsCache {
			return // resumed cells have no latency of their own
		}
		if p.Err != nil {
			r.jobs = append(r.jobs, math.Inf(1))
		} else {
			r.jobs = append(r.jobs, ms(p.Elapsed))
		}
		if traced {
			tr.add(parent, "worker", "cell", p.Cell.String(), now.Add(-p.Elapsed), now)
			a.add("cell_ms", ms(p.Elapsed))
			if !first {
				first = true
				a.add("first_cell_ms", ms(now.Sub(start)))
			}
		}
	}

	watch := startWatch()
	restarts := 0
	for pass, name := range []string{"fresh", "resume"} {
		sp := tr.begin(root, "sim", "sweep", name)
		sw := t.sweep(paths, specsched.SweepWorkers(replayWorkers), specsched.SweepCheckpoint(ckpt),
			specsched.SweepProgress(onProgress))
		mu.Lock()
		parent, start, first = sp, time.Now(), false
		mu.Unlock()
		cells, err := sw.Run(ctx)
		d := time.Since(start)
		tr.end(sp)
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace_replay sweep:", err)
		}
		t.checkCells(&r, a, cells)
		restarts += sw.FailureReport().WorkerRestarts
		if pass == 1 && traced {
			a.add("resume_ms", ms(d))
			a.add("resume_cells", float64(len(cells)))
		}
	}
	r.wall, r.cpu = watch.stop()
	if traced {
		a.add("worker_restarts", float64(restarts))
		a.add("uops", float64(len(r.jobs))*float64(t.win.warmup+t.win.measure))
		a.add("traced_round", 1)
	}
	return r, nil
}

// probe runs one sub-grid both in process and in workers, alternating,
// to price the worker frame round trip per cell and the spawn cost on the
// first cell; then times cells through Simulator.Run on the traces.
func (t *traceReplay) probe(ctx context.Context, a *acc) error {
	dir, err := os.MkdirTemp(t.b.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	paths, err := t.recordCorpus(dir, nil, 0, nil)
	if err != nil {
		return err
	}
	for rep := 0; rep < 2; rep++ {
		for _, mode := range []string{"worker", "inproc"} {
			var mu sync.Mutex
			var firstAt time.Duration
			t0 := time.Now()
			opt := specsched.SweepJobs(replayWorkers)
			if mode == "worker" {
				opt = specsched.SweepWorkers(replayWorkers)
			}
			sw := t.sweep(paths, opt, specsched.SweepProgress(func(p specsched.Progress) {
				mu.Lock()
				defer mu.Unlock()
				if firstAt == 0 {
					firstAt = time.Since(t0)
				}
				a.add(mode+"_cell_ms", ms(p.Elapsed))
			}))
			if _, err := sw.Run(ctx); err != nil {
				return fmt.Errorf("%s sweep: %w", mode, err)
			}
			mu.Lock()
			a.add(mode+"_first_ms", ms(firstAt))
			mu.Unlock()
		}
	}
	var cells []probeCell
	for i, wl := range t.corpus {
		for _, c := range []string{"Baseline_0", t.configs[1+i%(len(t.configs)-1)]} {
			cells = append(cells, probeCell{fmt.Sprintf("replay/%s/%s/%s#0", t.win, c, wl), specsched.NewSimulator(
				specsched.WithPreset(c), specsched.WithWorkloadSpec(specsched.TraceWorkload(paths[i])),
				specsched.Warmup(t.win.warmup), specsched.Measure(t.win.measure))})
		}
	}
	return probeCore(ctx, t.b.chk, a, cells)
}

// golden records the corpus and simulates every cell any seed can draw,
// in process.
func (t *traceReplay) golden(ctx context.Context) error {
	paths, err := t.recordCorpus(t.b.dir, nil, 0, nil)
	if err != nil {
		return err
	}
	all := t.sweep(paths, specsched.SweepConfigs(append([]string{"Baseline_0"}, replayConfigs...)...))
	cells, err := all.Run(ctx)
	if err != nil {
		return err
	}
	for _, c := range cells {
		t.b.chk.checkRun(t.cellKey(c), c.Run)
	}
	return nil
}
