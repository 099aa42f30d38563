package experiments

import (
	"context"
	"sync"
	"time"

	"specsched/internal/config"
	"specsched/internal/faultinject"
	"specsched/internal/sim"
	"specsched/internal/worker"
)

// workerAttempts is the per-cell attempt budget a grid with subprocess
// workers gets when none is set: a crashed worker loses its in-flight cell
// as a transient failure, and reassigning it needs a spare attempt.
const workerAttempts = 3

// Grid is a sweep resolved for execution — windows, workload axis, trace
// set, and pool policy — and the one place sweep cells run: it builds the
// sim.Pool, picks the in-process or subprocess cell runner, owns the
// resume checkpoint, and accounts for what the runs cost. The public
// façade derives one Grid per Sweep from its validated SweepSpec; Runner
// reports execute their grids through it too.
//
// Fields must not be modified after the first Run. Run may be called
// concurrently; every run shares the Grid's checkpoint and counters.
type Grid struct {
	// Warmup and Measure are the per-cell simulation windows in µ-ops.
	Warmup, Measure int64
	// Workloads is the resolved workload axis; names present in Traces
	// replay the recorded file instead of generating synthetically.
	Workloads []string
	Traces    sim.TraceSet
	// Seeds is the number of seed replicas per (config, workload) cell
	// (<= 0 selects 1, the calibrated profile seed).
	Seeds int
	// Scheduler and TimeSkip override every cell's configuration (nil
	// TimeSkip keeps each preset's default). Results are bit-identical
	// either way.
	Scheduler config.SchedulerImpl
	TimeSkip  *bool
	// Jobs bounds the pool's goroutines (0 = Workers when set, else
	// GOMAXPROCS). Workers > 0 runs cells in that many supervised worker
	// subprocesses instead of in-process.
	Jobs, Workers int
	// CellTimeout, StallTimeout, MaxAttempts, RetryBackoff,
	// MaxRetryBackoff, AbandonBudget, and Chaos are the sim.Pool policy;
	// MaxAttempts 0 selects workerAttempts when Workers > 0.
	CellTimeout, StallTimeout     time.Duration
	MaxAttempts                   int
	RetryBackoff, MaxRetryBackoff time.Duration
	AbandonBudget                 int
	Chaos                         *faultinject.Plan
	// Checkpoint names the resume checkpoint file ("" = none). It is
	// opened on the first Run and shared by every later one.
	Checkpoint string
	// Dedup, when set, shares cell results with every pool attached to
	// the same cache (see sim.Pool.Dedup).
	Dedup *sim.DedupCache
	// OnProgress, when set, receives a callback after every finished cell.
	OnProgress func(sim.Progress)

	mu        sync.Mutex
	ckpt      *sim.Checkpoint
	simulated int64
	abandoned int
	restarts  int
	reassigns int
}

// GridStats is what a Grid's runs have cost so far.
type GridStats struct {
	// SimulatedUOps counts warmup + measure µ-ops per executed cell;
	// checkpoint-cached and deduplicated cells are excluded.
	SimulatedUOps int64
	// Abandoned counts goroutines abandoned to timed-out or stalled cells.
	Abandoned int
	// WorkerRestarts and WorkerReassigned count worker subprocesses
	// respawned after a crash and the cell attempts those crashes lost.
	WorkerRestarts, WorkerReassigned int
	// CheckpointSalvage describes what loading a damaged checkpoint had
	// to salvage ("" when the load was clean or there is no checkpoint).
	CheckpointSalvage string
}

// Stats returns the grid's accounting so far.
func (g *Grid) Stats() GridStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GridStats{
		SimulatedUOps:    g.simulated,
		Abandoned:        g.abandoned,
		WorkerRestarts:   g.restarts,
		WorkerReassigned: g.reassigns,
	}
	if g.ckpt != nil && g.ckpt.Salvage() != nil {
		st.CheckpointSalvage = g.ckpt.Salvage().String()
	}
	return st
}

// Cells expands configurations into the grid's cells in deterministic grid
// order (configs outermost, then workloads, then seeds), applying the
// scheduler and time-skip overrides.
func (g *Grid) Cells(cfgs []config.CoreConfig) []sim.Cell {
	seeds := max(g.Seeds, 1)
	cells := make([]sim.Cell, 0, len(cfgs)*len(g.Workloads)*seeds)
	for _, cfg := range cfgs {
		cfg.Scheduler = g.Scheduler
		if g.TimeSkip != nil {
			cfg.TimeSkip = *g.TimeSkip
		}
		for _, wl := range g.Workloads {
			for i := 0; i < seeds; i++ {
				cells = append(cells, sim.Cell{Config: cfg, Workload: wl, SeedIdx: i})
			}
		}
	}
	return cells
}

// checkpoint opens the resume checkpoint on first use. Its fingerprint
// covers the windows, scheduler implementation, and trace contents, so a
// checkpoint written under different options is rejected, not merged.
func (g *Grid) checkpoint() (*sim.Checkpoint, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.Checkpoint == "" || g.ckpt != nil {
		return g.ckpt, nil
	}
	cp, err := sim.LoadCheckpoint(g.Checkpoint,
		sim.FingerprintTraces(g.Warmup, g.Measure, g.Scheduler, g.Traces))
	if err != nil {
		return nil, err
	}
	cp.SetChaos(g.Chaos)
	g.ckpt = cp
	return cp, nil
}

// Run executes cells on the work-stealing pool, streaming each finished
// cell to onResult (which may be nil), and returns the results in cell
// order. Cell failures stay in the results. A nil slice with an error
// means the grid could not start (bad checkpoint, worker pool failure);
// results with an error mean the checkpoint flush failed. The checkpoint
// is flushed before Run returns, cancellation included — that is what
// keeps an interrupted sweep resumable.
func (g *Grid) Run(ctx context.Context, cells []sim.Cell, onResult func(sim.Result)) ([]sim.Result, error) {
	cp, err := g.checkpoint()
	if err != nil {
		return nil, err
	}
	pool := &sim.Pool{
		Jobs:            g.Jobs,
		CellTimeout:     g.CellTimeout,
		StallTimeout:    g.StallTimeout,
		MaxAttempts:     g.MaxAttempts,
		RetryBackoff:    g.RetryBackoff,
		MaxRetryBackoff: g.MaxRetryBackoff,
		AbandonBudget:   g.AbandonBudget,
		Chaos:           g.Chaos,
		Checkpoint:      cp,
		OnProgress:      g.OnProgress,
		OnResult:        onResult,
	}
	if g.Dedup != nil {
		pool.Dedup = g.Dedup
		pool.DedupKey = func(c sim.Cell) string { return sim.DedupKey(c, g.Warmup, g.Measure, g.Traces) }
	}
	local := sim.LocalRunner{Warmup: g.Warmup, Measure: g.Measure, Traces: g.Traces}
	runner := sim.CellRunner(local)
	var wp *worker.Pool
	if g.Workers > 0 {
		// One pool goroutine per worker process (more would only queue on
		// the slots and burn their cell timeouts waiting), and a retry
		// budget for reassigning the cells of crashed workers.
		if pool.Jobs == 0 {
			pool.Jobs = g.Workers
		}
		if pool.MaxAttempts == 0 {
			pool.MaxAttempts = workerAttempts
		}
		wp, err = worker.NewPool(worker.Options{
			Workers:  g.Workers,
			Warmup:   g.Warmup,
			Measure:  g.Measure,
			Traces:   g.Traces,
			Fallback: local,
		})
		if err != nil {
			return nil, err
		}
		runner = wp
	}
	res := pool.RunWith(ctx, cells, runner)
	var ws worker.Stats
	if wp != nil {
		wp.Close()
		ws = wp.Stats()
	}

	var executed int64
	for _, r := range res {
		if r.Err == nil && !r.Cached && !r.Deduped {
			executed += g.Warmup + g.Measure
		}
	}
	g.mu.Lock()
	g.simulated += executed
	g.abandoned += pool.Abandoned()
	g.restarts += int(ws.Restarts)
	g.reassigns += int(ws.Reassigned)
	g.mu.Unlock()
	if cp != nil {
		return res, cp.Flush()
	}
	return res, nil
}
