package specsched_test

import (
	"sync"
	"testing"

	"specsched"
	"specsched/results"
)

// TestSweepCellCacheDedup is the cross-sweep dedup contract: two sweeps
// sharing a CellCache produce cells bit-identical to an uncached run,
// while the second sweep simulates nothing — every cell is served from
// the cache and marked Deduped.
func TestSweepCellCacheDedup(t *testing.T) {
	baseline, err := specsched.NewSweep(sweepOpts()...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cache := specsched.NewCellCache(0)
	first, err := specsched.NewSweep(sweepOpts(specsched.SweepCellCache(cache))...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := specsched.NewSweep(sweepOpts(specsched.SweepCellCache(cache))...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []specsched.Cell, wantDeduped bool) {
		t.Helper()
		if len(got) != len(baseline) {
			t.Fatalf("%s sweep: %d cells, want %d", name, len(got), len(baseline))
		}
		for i := range baseline {
			a, b := baseline[i], got[i]
			if a.CellRef != b.CellRef {
				t.Fatalf("%s sweep: cell order diverged at %d: %s vs %s", name, i, a.CellRef, b.CellRef)
			}
			ar, br := a.Run, b.Run
			ar.Elapsed, br.Elapsed = 0, 0
			if ar != br {
				t.Fatalf("%s sweep: cell %s not bit-identical to uncached run", name, a.CellRef)
			}
			if b.Deduped != wantDeduped {
				t.Fatalf("%s sweep: cell %s Deduped = %v, want %v", name, b.CellRef, b.Deduped, wantDeduped)
			}
		}
	}
	check("first", first, false)
	check("second", second, true)

	st := cache.Stats()
	if st.Simulated != int64(len(baseline)) {
		t.Fatalf("cache simulated %d cells, want %d (one per distinct cell)", st.Simulated, len(baseline))
	}
	if st.Hits+st.Deduped != int64(len(baseline)) {
		t.Fatalf("cache saved %d+%d cells, want %d", st.Hits, st.Deduped, len(baseline))
	}
	if st.Entries == 0 {
		t.Fatal("cache retained nothing")
	}
}

// TestSweepReportUsesCellCache: a Report runs through the same grid as
// Run, so a report over cells an earlier sweep already computed on the
// shared cache simulates nothing and renders byte-identical text.
func TestSweepReportUsesCellCache(t *testing.T) {
	opts := []specsched.SweepOption{
		specsched.SweepConfigs("Baseline_0"),
		specsched.SweepWorkloads("gzip", "hmmer"),
		specsched.Warmup(1000),
		specsched.Measure(4000),
	}
	want, err := specsched.NewSweep(opts...).Report(ctx, "table2")
	if err != nil {
		t.Fatal(err)
	}

	cache := specsched.NewCellCache(0)
	if _, err := specsched.NewSweep(append(opts, specsched.SweepCellCache(cache))...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	sweep := specsched.NewSweep(append(opts, specsched.SweepCellCache(cache))...)
	got, err := sweep.Report(ctx, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cached report differs:\n-- cached --\n%s\n-- uncached --\n%s", got, want)
	}
	if st := cache.Stats(); st.Hits != 2 || st.Simulated != 2 {
		t.Fatalf("cache stats %+v, want 2 simulated by Run and 2 hits by Report", st)
	}
	if n := sweep.SimulatedUOps(); n != 0 {
		t.Fatalf("report re-simulated %d µ-ops, want 0", n)
	}
}

// TestSweepCellCacheConcurrent: two sweeps over the same grid racing on
// one cache still simulate each distinct cell exactly once between them,
// and both arrive at the uncached results. This is the daemon's
// concurrent-jobs scenario in miniature.
func TestSweepCellCacheConcurrent(t *testing.T) {
	baseline, err := specsched.NewSweep(sweepOpts()...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cache := specsched.NewCellCache(0)
	runs := make([][]specsched.Cell, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = specsched.NewSweep(sweepOpts(specsched.SweepCellCache(cache))...).Run(ctx)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	for _, cells := range runs {
		for i := range baseline {
			a, b := baseline[i].Run, cells[i].Run
			a.Elapsed, b.Elapsed = 0, 0
			if baseline[i].CellRef != cells[i].CellRef || a != b {
				t.Fatalf("racing sweeps diverged from the uncached run at %s", baseline[i].CellRef)
			}
		}
	}
	st := cache.Stats()
	if st.Simulated != int64(len(baseline)) {
		t.Fatalf("racing sweeps simulated %d cells, want exactly %d", st.Simulated, len(baseline))
	}
	if st.Hits+st.Deduped != int64(len(baseline)) {
		t.Fatalf("dedup saved %d+%d cells, want %d", st.Hits, st.Deduped, len(baseline))
	}
}

// TestFailureReportConcurrentWithResults exercises the documented
// concurrency guarantee under the race detector: FailureReport (and
// Spec) hammered from other goroutines while Results streams.
func TestFailureReportConcurrentWithResults(t *testing.T) {
	sweep := specsched.NewSweep(sweepOpts(specsched.SweepRetries(2))...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fr := sweep.FailureReport()
				if fr.Retries < 0 {
					t.Error("impossible retry count")
					return
				}
				_ = sweep.Spec()
			}
		}()
	}

	var streamed []results.Run
	for cell, cerr := range sweep.Results(ctx) {
		if cerr != nil {
			t.Errorf("cell %s: %v", cell.CellRef, cerr)
		}
		streamed = append(streamed, cell.Run)
	}
	close(stop)
	wg.Wait()
	if len(streamed) != 8 {
		t.Fatalf("streamed %d cells, want 8", len(streamed))
	}
	if fr := sweep.FailureReport(); len(fr.Failed) != 0 {
		t.Fatalf("unexpected failures: %+v", fr.Failed)
	}
}
