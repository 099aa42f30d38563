package main

import (
	"context"
	"fmt"
	"time"

	"specsched"
	"specsched/results"
)

// probeCell is one cell the core probe re-runs through Simulator.Run,
// with the golden key its statistics must match.
type probeCell struct {
	key string
	sim *specsched.Simulator
}

// probeCore times each cell through Simulator.Run: Run.Elapsed is the
// measurement window alone, so the rest of the call is construction plus
// warmup. Each run is also checked against the cell's golden digest — the
// single-cell path must agree bit for bit with the sweep paths.
func probeCore(ctx context.Context, chk *checker, a *acc, cells []probeCell) error {
	for _, c := range cells {
		t0 := time.Now()
		r, err := c.sim.Run(ctx)
		total := time.Since(t0)
		if err != nil {
			return fmt.Errorf("core probe %s: %w", c.key, err)
		}
		chk.checkRun(c.key, r)
		a.add("probe_measure_ns", float64(r.Elapsed.Nanoseconds()))
		a.add("probe_committed", float64(r.Committed))
		a.add("probe_prewarm_ms", float64((total-r.Elapsed).Nanoseconds())/1e6)
	}
	return nil
}

// addRunCounters accumulates the simulator-side counters the core
// metrics are ratios of.
func addRunCounters(a *acc, r results.Run) {
	a.add("cycles", float64(r.Cycles))
	a.add("skipped_cycles", float64(r.SkippedCycles))
	a.add("bitmap_words", float64(r.SchedBitmapWords))
	a.add("bitmap_picks", float64(r.SchedBitmapPicks))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
