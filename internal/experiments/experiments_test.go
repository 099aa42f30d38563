package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specsched/internal/sim"
	"specsched/internal/stats"
	"specsched/internal/trace"
	"specsched/internal/traceio"
)

// ctx is the background context shared by these tests; cancellation
// behaviour is covered separately.
var ctx = context.Background()

// tinyGrid keeps experiment tests fast: three contrasting workloads (one
// with load-use chains over L1 hits, one bank-conflict-prone, one
// miss-heavy) and short windows.
func tinyGrid() *Grid {
	return &Grid{
		Warmup:    3000,
		Measure:   15000,
		Workloads: []string{"gzip", "hmmer", "xalancbmk"},
	}
}

func TestTable1Static(t *testing.T) {
	out := Table1()
	for _, want := range []string{"192-entry ROB", "60-entry", "TAGE", "DDR3-1600", "75/185"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	r := NewRunner(tinyGrid())
	out, err := r.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range tinyGrid().Workloads {
		if !strings.Contains(out, wl) {
			t.Errorf("Table 2 missing workload %s", wl)
		}
	}
	if !strings.Contains(out, "paper IPC") {
		t.Error("Table 2 missing paper reference column")
	}
}

func TestFig3Shape(t *testing.T) {
	r := NewRunner(tinyGrid())
	if _, err := r.Fig3(ctx); err != nil {
		t.Fatal(err)
	}
	set, err := r.Collect(ctx, "Baseline_0", "Baseline_2", "Baseline_4", "Baseline_6")
	if err != nil {
		t.Fatal(err)
	}
	g2 := set.GMeanSpeedup("Baseline_2", "Baseline_0")
	g4 := set.GMeanSpeedup("Baseline_4", "Baseline_0")
	g6 := set.GMeanSpeedup("Baseline_6", "Baseline_0")
	if !(g2 > g4 && g4 > g6) {
		t.Fatalf("Fig 3 not monotone: %.3f %.3f %.3f", g2, g4, g6)
	}
	if g6 >= 1 {
		t.Fatalf("Baseline_6 gmean %.3f, must be a slowdown", g6)
	}
}

func TestFig5ShiftingRemovesBankReplays(t *testing.T) {
	r := NewRunner(tinyGrid())
	out, err := r.Fig5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "74.8%") {
		t.Error("Fig 5 report missing the paper reference number")
	}
	set, err := r.Collect(ctx, "SpecSched_4", "SpecSched_4_Shift")
	if err != nil {
		t.Fatal(err)
	}
	red := set.ReductionVs("SpecSched_4_Shift", "SpecSched_4",
		func(run *stats.Run) int64 { return run.ReplayedBank })
	if red < 0.5 {
		t.Fatalf("Shifting removed only %.1f%% of bank replays (paper: 74.8%%)", 100*red)
	}
}

func TestFig8CritRemovesMostReplays(t *testing.T) {
	r := NewRunner(tinyGrid())
	if _, err := r.Fig8(ctx); err != nil {
		t.Fatal(err)
	}
	set, err := r.Collect(ctx, "SpecSched_4", "SpecSched_4_Crit")
	if err != nil {
		t.Fatal(err)
	}
	red := set.ReductionVs("SpecSched_4_Crit", "SpecSched_4",
		func(run *stats.Run) int64 { return run.Replayed() })
	if red < 0.6 {
		t.Fatalf("Crit removed only %.1f%% of replays (paper: 90.6%%)", 100*red)
	}
}

func TestRunnerCacheReuse(t *testing.T) {
	r := NewRunner(tinyGrid())
	a, err := r.Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	// Cached: identical pointers.
	if a.Get("Baseline_0", "swim") != b.Get("Baseline_0", "swim") {
		t.Fatal("runner re-simulated a cached configuration")
	}
}

func TestRunnerParallelDeterminism(t *testing.T) {
	g := tinyGrid()
	g.Jobs = 4
	a, err := NewRunner(g).Collect(ctx, "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	g = tinyGrid()
	g.Jobs = 1
	b, err := NewRunner(g).Collect(ctx, "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range g.Workloads {
		ra, rb := a.Get("SpecSched_4", wl), b.Get("SpecSched_4", wl)
		if *ra != *rb {
			t.Fatalf("%s: parallel and serial runs differ", wl)
		}
	}
}

// summarySet runs the full Summary() sweep (every config the headline
// numbers need) and returns the resulting pooled runs.
func summarySet(t *testing.T, g *Grid) (*Runner, *stats.Set) {
	t.Helper()
	r := NewRunner(g)
	if _, err := r.Summary(ctx); err != nil {
		t.Fatal(err)
	}
	return r, r.Snapshot()
}

func assertSetsIdentical(t *testing.T, a, b *stats.Set, what string) {
	t.Helper()
	ac, bc := a.Configs(), b.Configs()
	if len(ac) != len(bc) {
		t.Fatalf("%s: config count %d vs %d", what, len(ac), len(bc))
	}
	for _, cn := range ac {
		for _, wl := range a.Workloads() {
			ra, rb := a.Get(cn, wl), b.Get(cn, wl)
			if (ra == nil) != (rb == nil) {
				t.Fatalf("%s: %s/%s present in one set only", what, cn, wl)
			}
			if ra != nil && *ra != *rb {
				t.Fatalf("%s: %s/%s differs:\n a=%+v\n b=%+v", what, cn, wl, *ra, *rb)
			}
		}
	}
}

// TestSummarySweepBitIdenticalAcrossJobs pins the pool's determinism
// contract on the full Summary() sweep: one worker and eight workers must
// produce bit-identical statistics, cell scheduling order notwithstanding.
func TestSummarySweepBitIdenticalAcrossJobs(t *testing.T) {
	g := tinyGrid()
	g.Jobs = 1
	_, serial := summarySet(t, g)
	g = tinyGrid()
	g.Jobs = 8
	_, pooled := summarySet(t, g)
	assertSetsIdentical(t, serial, pooled, "jobs=1 vs jobs=8")
}

// TestSeedReplicasPoolDeterministically: multi-seed sweeps must pool
// replicas in seed order regardless of worker count, and must actually
// change the statistics relative to a single-seed sweep.
func TestSeedReplicasPoolDeterministically(t *testing.T) {
	g := tinyGrid()
	g.Seeds = 3
	g.Jobs = 1
	a, err := NewRunner(g).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	g = tinyGrid()
	g.Seeds = 3
	g.Jobs = 8
	b, err := NewRunner(g).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	assertSetsIdentical(t, a, b, "seeds=3 jobs=1 vs jobs=8")

	c, err := NewRunner(tinyGrid()).Collect(ctx, "Baseline_0")
	if err != nil {
		t.Fatal(err)
	}
	r3, r1 := a.Get("Baseline_0", "gzip"), c.Get("Baseline_0", "gzip")
	if r3.Cycles <= r1.Cycles {
		t.Fatalf("3-seed pooled cycles %d not larger than 1-seed %d", r3.Cycles, r1.Cycles)
	}
}

// TestRunnerCheckpointResume: a second grid pointed at the same
// checkpoint re-simulates nothing and reproduces identical statistics; a
// wider sweep only simulates the new cells.
func TestRunnerCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	grid := func() *Grid {
		g := tinyGrid()
		g.Checkpoint = ckpt
		return g
	}

	g1 := grid()
	a, err := NewRunner(g1).Collect(ctx, "Baseline_0", "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Stats().SimulatedUOps == 0 {
		t.Fatal("first sweep simulated nothing")
	}

	g2 := grid()
	b, err := NewRunner(g2).Collect(ctx, "Baseline_0", "SpecSched_4")
	if err != nil {
		t.Fatal(err)
	}
	if n := g2.Stats().SimulatedUOps; n != 0 {
		t.Fatalf("resumed sweep re-simulated %d µ-ops, want 0", n)
	}
	assertSetsIdentical(t, a, b, "fresh vs resumed")

	// Extending the grid only pays for the new config.
	g3 := grid()
	if _, err := NewRunner(g3).Collect(ctx, "Baseline_0", "SpecSched_4", "SpecSched_4_Crit"); err != nil {
		t.Fatal(err)
	}
	perCfg := (g3.Warmup + g3.Measure) * int64(len(g3.Workloads))
	if n := g3.Stats().SimulatedUOps; n != perCfg {
		t.Fatalf("extended sweep simulated %d µ-ops, want %d (one config)", n, perCfg)
	}
}

// TestCollectReportsFailedCellsAfterSweep: a bad workload fails its own
// cells and is named in the error; the error arrives after the sweep (the
// healthy cells of the same grid still ran and were cached).
func TestCollectReportsFailedCellsAfterSweep(t *testing.T) {
	g := tinyGrid()
	g.Workloads = []string{"gzip", "nonexistent"}
	r := NewRunner(g)
	_, err := r.Collect(ctx, "Baseline_0")
	if err == nil {
		t.Fatal("sweep with a broken cell must error")
	}
	if !strings.Contains(err.Error(), "nonexistent") || !strings.Contains(err.Error(), "cells failed") {
		t.Fatalf("error does not name the failed cells: %v", err)
	}
	if got := r.Snapshot().Get("Baseline_0", "gzip"); got == nil {
		t.Fatal("healthy cell was not completed despite the failing sibling")
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := NewRunner(tinyGrid())
	if _, err := r.Run(ctx, "fig42"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunDispatch(t *testing.T) {
	r := NewRunner(tinyGrid())
	for _, name := range []string{"table1", "summary"} {
		out, err := r.Run(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out == "" {
			t.Fatalf("%s: empty report", name)
		}
	}
}

func TestUnknownWorkloadPropagates(t *testing.T) {
	g := tinyGrid()
	g.Workloads = []string{"nonexistent"}
	if _, err := NewRunner(g).Table2(ctx); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestAblationsRun(t *testing.T) {
	r := NewRunner(tinyGrid())
	out, err := r.Ablations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NoSilence", "NoSLB", "SetInterleave", "IQRetention", "Crit_1K"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestReplaySchemesAgnosticism(t *testing.T) {
	r := NewRunner(tinyGrid())
	out, err := r.ReplaySchemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SS4_alpha", "SS4_selective", "Crit_selective", "agnostic"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay-schemes report missing %q", want)
		}
	}
}

// TestCollectCanceledFlushesCheckpoint: canceling a sweep mid-flight must
// surface context.Canceled, keep the completed cells in the checkpoint, and
// let a resumed runner pick up from there without re-simulating them.
func TestCollectCanceledFlushesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	grid := func() *Grid {
		g := tinyGrid()
		g.Checkpoint = ckpt
		g.Jobs = 1
		// Long cells so the cancel lands mid-sweep.
		g.Measure = 150000
		return g
	}

	cctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	g := grid()
	g.OnProgress = func(sim.Progress) { once.Do(cancel) } // cancel after the 1st cell
	_, err := NewRunner(g).Collect(cctx, "Baseline_0")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v, want context.Canceled", err)
	}

	cp, err := sim.LoadCheckpoint(ckpt, sim.Fingerprint(g.Warmup, g.Measure, g.Scheduler))
	if err != nil {
		t.Fatalf("checkpoint unusable after cancel: %v", err)
	}
	if cp.Len() == 0 {
		t.Fatal("no completed cells in the checkpoint after cancel")
	}
	done := cp.Len()

	// Resume: the completed cells are served from the checkpoint.
	g2 := grid()
	if _, err := NewRunner(g2).Collect(context.Background(), "Baseline_0"); err != nil {
		t.Fatal(err)
	}
	perCell := g2.Warmup + g2.Measure
	want := perCell * int64(len(g2.Workloads)-done)
	if got := g2.Stats().SimulatedUOps; got != want {
		t.Fatalf("resume simulated %d µ-ops, want %d (%d cells were checkpointed)", got, want, done)
	}
}

// TestRunnerTraces pins trace dispatch: workloads named in Traces replay
// the recorded file, and the replayed Table 2 report equals the live one
// for the recorded workloads.
func TestRunnerTraces(t *testing.T) {
	const warm, measure = 1000, 5000
	dir := t.TempDir()
	wls := []string{"gzip", "hmmer"}
	refs := sim.TraceSet{}
	for _, wl := range wls {
		p, err := trace.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, wl+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := traceio.Record(f, trace.New(p), warm+measure+8192, "test:"+wl, p.Seed); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		ref, err := sim.LoadTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		refs[ref.Name] = ref
	}

	replayed, err := NewRunner(&Grid{Warmup: warm, Measure: measure, Workloads: wls, Traces: refs}).Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewRunner(&Grid{Warmup: warm, Measure: measure, Workloads: wls}).Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != live {
		t.Errorf("trace-driven Table 2 differs from live:\n-- replayed --\n%s\n-- live --\n%s", replayed, live)
	}
}
