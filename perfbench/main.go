// Command perfbench is the repository's end-to-end benchmark. It drives
// the public specsched surface (and the in-process sweep service) on one
// of three workloads, checks every simulated result against golden
// digests, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics of a traced run — as one JSON object on the last line
// of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper_repro --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for what each workload isolates and how
// to read a traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"specsched"
)

func main() {
	specsched.MaybeWorker() // sweep workers re-exec this binary
	maybeSetupProbe()       // so does paper_repro's set-up probe
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minsts_per_s", "Minst/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"ipc_err_pct", "%"},
}

// reportNames are the Sweep.Report entries that simulate (table1 only
// formats the configuration), each timed as experiments.report_s.<name>.
var reportNames = []string{"table2", "fig3", "fig4", "fig5", "fig7", "fig8", "delays", "summary", "ablations", "replayschemes"}

func perLayer() []metricDef {
	ms := []metricDef{
		{"core.measure_ns_per_uop", "ns"},
		{"core.prewarm_ms", "ms"},
		{"core.skipped_cycle_frac", "frac"},
		{"core.bitmap_words_per_pick", "count"},
		{"specsched.gc_cpu_frac", "frac"},
		{"specsched.alloc_bytes_per_uop", "B"},
	}
	for _, n := range reportNames {
		ms = append(ms, metricDef{"experiments.report_s." + n, "s"})
	}
	ms = append(ms,
		metricDef{"experiments.reused_cell_frac", "frac"},
		metricDef{"sim.cell_ms_p50", "ms"},
		metricDef{"sim.cell_ms_p90", "ms"},
		metricDef{"sim.pool_idle_frac", "frac"},
		metricDef{"sim.first_cell_ms", "ms"},
		metricDef{"sim.dedup_hit_frac", "frac"},
		metricDef{"sim.resume_ms_per_cell", "ms"},
		metricDef{"traceio.record_ns_per_uop", "ns"},
		metricDef{"traceio.verify_ns_per_uop", "ns"},
		metricDef{"traceio.bytes_per_uop", "B"},
		metricDef{"worker.ipc_ms_per_cell", "ms"},
		metricDef{"worker.spawn_ms", "ms"},
		metricDef{"worker.restarts", "count"},
		metricDef{"service.submit_ms_p50", "ms"},
		metricDef{"service.first_cell_ms_p50", "ms"},
		metricDef{"service.rejected_frac", "frac"},
	)
	for _, l := range layers {
		ms = append(ms, metricDef{l + ".self_s", "s"})
	}
	return append(ms, metricDef{"bench.trace_overhead_s", "s"})
}

// windows is a per-cell simulation window in µ-ops.
type windows struct{ warmup, measure int64 }

func (w windows) String() string { return fmt.Sprintf("w%d.m%d", w.warmup, w.measure) }

// round is one set-up plus one timed pass of a workload.
type round struct {
	wall, cpu time.Duration
	// setups holds the round's set-up samples in seconds.
	setups []float64
	// jobs holds each timed job's latency in ms, +Inf for a failed one.
	jobs []float64
	// attempted and failed count every job, including those without a
	// latency of their own (checkpoint-served cells on trace_replay).
	attempted, failed int
	committed         int64
	// baseIPC maps each Baseline_0 cell the round delivered to its IPC.
	baseIPC map[baseCell]float64
}

// baseCell names a Baseline_0 cell: a workload and its seed replica.
type baseCell struct {
	workload string
	seed     int
}

// workload is one benchmark workload.
type workload interface {
	// round runs one set-up and timed pass; tr is nil on untraced rounds,
	// and a collects per-layer samples only when tr is not nil.
	round(ctx context.Context, tr *tracer, a *acc) (round, error)
	// probe runs the workload's per-layer probes after the traced rounds.
	probe(ctx context.Context, a *acc) error
	// golden simulates the workload's whole cell universe so -write-golden
	// records a digest for every cell any seed can draw.
	golden(ctx context.Context) error
}

// bench is what every workload shares.
type bench struct {
	seed int64
	tiny bool   // test-sized windows and grids
	dir  string // scratch directory of this run, inside the checkout
	chk  *checker
}

// windowsFor is the per-cell window of each workload. The paper runs 50 M
// warmup + 100 M measured instructions; these keep measure ≫ warmup at a
// size where one round takes seconds on two CPUs.
func (b *bench) windowsFor(name string) windows {
	full := map[string]windows{
		"paper_repro":  {1000, 8000},
		"service_mix":  {500, 4000},
		"trace_replay": {1000, 12000},
	}
	tiny := map[string]windows{
		"paper_repro":  {100, 600},
		"service_mix":  {100, 400},
		"trace_replay": {100, 800},
	}
	if b.tiny {
		return tiny[name]
	}
	return full[name]
}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "paper_repro":
		return newPaperRepro(b), nil
	case "service_mix":
		return newServiceMix(b), nil
	case "trace_replay":
		return newTraceReplay(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper_repro, service_mix or trace_replay)", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper_repro, service_mix or trace_replay")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time; rounds repeat until it is spent (at least one)")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	tiny := fs.Bool("tiny", false, "test-sized windows and grids")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	writeGolden := fs.String("write-golden", "", "simulate the workload's cell universe and merge its digests into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	chk, err := newChecker()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{seed: *seed, tiny: *tiny, dir: dir, chk: chk}
	w, err := newWorkload(*name, b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	if *writeGolden != "" {
		if err := w.golden(ctx); err != nil {
			fmt.Fprintln(stderr, "perfbench: golden:", err)
			return 1
		}
		if err := chk.write(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d digests to %s\n", len(chk.seen), *writeGolden)
		return 0
	}

	spinBefore := hostSpin()
	res, err := measure(ctx, w, *name, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.spin = [2]float64{spinBefore, hostSpin()}
	if sm, ok := w.(*serviceMix); ok && sm.log.n > 0 {
		fmt.Fprintf(stderr, "perfbench: the service logged %d lines\n", sm.log.n)
	}
	if res.tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans written to", path)
	}
	return report(stdout, stderr, b, *name, res)
}

// result is everything one invocation measured.
type result struct {
	untraced, traced []round
	e2e              map[string]float64
	samples          map[string]int
	layer            map[string]float64
	tr               *tracer
	// spin is hostSpin before and after the rounds.
	spin [2]float64
}

// measure runs untraced rounds for the whole budget — or, on a traced run,
// for half of it followed by traced rounds and the layer probes.
func measure(ctx context.Context, w workload, name string, seconds float64, traced bool) (*result, error) {
	res := &result{}
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	var err error
	if res.untraced, err = rounds(ctx, w, budget, nil, nil); err != nil {
		return nil, err
	}
	if res.e2e, res.samples, err = endToEndMetrics(res.untraced); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.e2e["peak_rss_mb"] = peakRSSMB(name == "trace_replay")
	if !traced {
		return res, nil
	}
	res.tr = newTracer()
	a := newAcc()
	m0 := readRuntime()
	if res.traced, err = rounds(ctx, w, budget, res.tr, a); err != nil {
		return nil, err
	}
	m1 := readRuntime()
	a.add("gc_cpu_s", m1.gcCPU-m0.gcCPU)
	a.add("busy_cpu_s", m1.busyCPU-m0.busyCPU)
	a.add("alloc_bytes", m1.allocBytes-m0.allocBytes)
	if err := w.probe(ctx, a); err != nil {
		return nil, fmt.Errorf("%s probe: %w", name, err)
	}
	res.layer, err = layerMetrics(a, res.tr, fastWall(res.traced)-fastWall(res.untraced))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// rounds repeats w's round until another one would overrun the budget;
// it always runs at least one.
func rounds(ctx context.Context, w workload, budget float64, tr *tracer, a *acc) ([]round, error) {
	start := time.Now()
	var out []round
	var each []float64
	for {
		t0 := time.Now()
		r, err := w.round(ctx, tr, a)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		each = append(each, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(each) > budget {
			return out, nil
		}
	}
}

func roundWalls(rs []round) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.wall.Seconds())
	}
	return xs
}

// fastest returns the fastest third of the rounds by wall time (at least
// one); see endToEndMetrics.
func fastest(rs []round) []round {
	fast := append([]round(nil), rs...)
	sort.Slice(fast, func(i, j int) bool { return fast[i].wall < fast[j].wall })
	return fast[:(len(fast)+2)/3]
}

// fastWall is the median wall time of the fastest third of the rounds.
func fastWall(rs []round) float64 { return median(roundWalls(fastest(rs))) }

// endToEndMetrics reduces untraced rounds to the end-to-end metrics. The
// timing metrics come from the fastest third of the rounds (by wall time;
// at least one): the speed of a shared host swings by tens of percent, and
// only ever down from its quiet speed, so the quick rounds are the
// steadiest estimate of what the program itself costs. Per-round figures
// are medians over those rounds and job latencies pool their jobs (each
// round alone holds enough jobs for its p90). Set-up is the median of the
// quickest third of every round's set-up samples. Jobs and failures count
// over every round.
func endToEndMetrics(rs []round) (map[string]float64, map[string]int, error) {
	fast := fastest(rs)
	var setup, wall, cpu, rate, lat []float64
	attempted, failed := 0, 0
	base := map[baseCell]float64{}
	for _, r := range rs {
		setup = append(setup, r.setups...)
		attempted += r.attempted
		failed += r.failed
		for c, ipc := range r.baseIPC {
			base[c] = ipc
		}
	}
	sort.Float64s(setup)
	for _, r := range fast {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rate = append(rate, float64(r.committed)/r.wall.Seconds()/1e6)
		lat = append(lat, r.jobs...)
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, nil, fmt.Errorf("job_p50_ms: %w", err)
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, nil, fmt.Errorf("job_p90_ms: %w", err)
	}
	ipcErr, err := ipcErrPct(base)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"setup_s":          median(setup[:(len(setup)+2)/3]),
		"wall_s":           median(wall),
		"cpu_s":            median(cpu),
		"sim_minsts_per_s": median(rate),
		"job_p50_ms":       p50,
		"job_p90_ms":       p90,
		"peak_rss_mb":      0, // filled by measure, which knows whether workers ran
		"ok_frac":          float64(attempted-failed) / float64(attempted),
		"ipc_err_pct":      ipcErr,
	}
	n := map[string]int{
		"setup_s": len(setup), "wall_s": len(fast), "cpu_s": len(fast), "sim_minsts_per_s": len(fast),
		"job_p50_ms": len(lat), "job_p90_ms": len(lat), "peak_rss_mb": 1,
		"ok_frac": attempted, "ipc_err_pct": len(base),
	}
	return m, n, nil
}

// ipcErrPct is the simulated-time accuracy: mean |IPC/PaperIPC − 1| over
// the delivered Baseline_0 cells, in percent.
func ipcErrPct(base map[baseCell]float64) (float64, error) {
	paper := map[string]float64{}
	for _, w := range specsched.Workloads() {
		paper[w.Name] = w.PaperIPC
	}
	if len(base) == 0 {
		return 0, errors.New("no Baseline_0 cell delivered; ipc_err_pct needs one")
	}
	var t float64
	for c, ipc := range base {
		p, ok := paper[c.workload]
		if !ok || p == 0 {
			return 0, fmt.Errorf("workload %s has no paper IPC", c.workload)
		}
		t += math.Abs(ipc/p - 1)
	}
	return 100 * t / float64(len(base)), nil
}

// acc collects per-layer samples by name from traced rounds and probes.
type acc struct {
	mu sync.Mutex
	v  map[string][]float64
}

func newAcc() *acc { return &acc{v: map[string][]float64{}} }

func (a *acc) add(k string, xs ...float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.v[k] = append(a.v[k], xs...)
	a.mu.Unlock()
}

func (a *acc) get(k string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.v[k]...)
}

func (a *acc) sum(k string) float64 { return sum(a.get(k)) }
func (a *acc) med(k string) float64 { return median(a.get(k)) }

// ratio is sum(num)/sum(den), 0 when the layer saw no work.
func (a *acc) ratio(num, den string) float64 {
	if d := a.sum(den); d != 0 {
		return a.sum(num) / d
	}
	return 0
}

// layerMetrics reduces the traced run to the per-layer metrics. A layer
// the workload bypasses reads 0.
func layerMetrics(a *acc, tr *tracer, overhead float64) (map[string]float64, error) {
	m := map[string]float64{
		"core.measure_ns_per_uop":       a.ratio("probe_measure_ns", "probe_committed"),
		"core.prewarm_ms":               a.med("probe_prewarm_ms"),
		"core.skipped_cycle_frac":       a.ratio("skipped_cycles", "cycles"),
		"core.bitmap_words_per_pick":    a.ratio("bitmap_words", "bitmap_picks"),
		"specsched.gc_cpu_frac":         a.ratio("gc_cpu_s", "busy_cpu_s"),
		"specsched.alloc_bytes_per_uop": a.ratio("alloc_bytes", "uops"),
		"sim.first_cell_ms":             a.med("first_cell_ms"),
		"sim.dedup_hit_frac":            a.ratio("dedup_served", "dedup_all"),
		"sim.resume_ms_per_cell":        a.ratio("resume_ms", "resume_cells"),
		"traceio.record_ns_per_uop":     a.ratio("record_ns", "record_uops"),
		"traceio.verify_ns_per_uop":     a.ratio("verify_ns", "record_uops"),
		"traceio.bytes_per_uop":         a.ratio("trace_bytes", "record_uops"),
		"worker.ipc_ms_per_cell":        a.med("worker_cell_ms") - a.med("inproc_cell_ms"),
		"worker.spawn_ms":               a.med("worker_first_ms") - a.med("inproc_first_ms"),
		"worker.restarts":               a.sum("worker_restarts"),
		"service.submit_ms_p50":         a.med("submit_ms"),
		"service.first_cell_ms_p50":     a.med("service_first_ms"),
		"service.rejected_frac":         a.ratio("rejected", "submits"),
		"bench.trace_overhead_s":        overhead,
	}
	// Left unset, the ratios below read 0: a bypassed layer.
	if d := a.sum("demanded_cells"); d != 0 {
		m["experiments.reused_cell_frac"] = 1 - a.sum("executed_cells")/d
	}
	if c := a.sum("pool_capacity_s"); c != 0 {
		m["sim.pool_idle_frac"] = 1 - a.sum("cell_busy_s")/c
	}
	for _, n := range reportNames {
		m["experiments.report_s."+n] = a.med("report_s." + n)
	}
	if cells := a.get("cell_ms"); len(cells) > 0 {
		var err error
		if m["sim.cell_ms_p50"], err = percentile(cells, 0.5); err != nil {
			return nil, fmt.Errorf("sim.cell_ms_p50: %w", err)
		}
		if m["sim.cell_ms_p90"], err = percentile(cells, 0.9); err != nil {
			return nil, fmt.Errorf("sim.cell_ms_p90: %w", err)
		}
	}
	self := tr.selfTimes()
	for _, l := range layers {
		m[l+".self_s"] = self[l].Seconds() / a.sum("traced_round")
	}
	return m, nil
}

// hostSpin times a fixed integer loop (best of three, in ms). It involves
// none of the program, so when it moves between runs with the timing
// metrics, the host's speed moved, not the simulator's.
func hostSpin() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		x := uint64(1)
		for j := 0; j < 50_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

var spinSink uint64

// runtimeSample is the subset of runtime/metrics the traced run reads.
type runtimeSample struct{ gcCPU, busyCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), busyCPU: f(1) - f(2), allocBytes: f(3)}
}

// stopwatch measures wall time and the CPU of this process plus its
// reaped children (sweep worker subprocesses) over one interval.
type stopwatch struct {
	t   time.Time
	cpu time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.t), cpuTime() - s.cpu
}

func cpuTime() time.Duration {
	var t time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			t += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return t
}

// peakRSSMB is this process's high-water RSS, plus that of its largest
// reaped child when the children are sweep workers (Linux reports
// ru_maxrss in KiB).
func peakRSSMB(workers bool) float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for RUSAGE_SELF
	kb := self.Maxrss
	if workers {
		_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
		kb += kids.Maxrss
	}
	return float64(kb) / 1024
}

// report prints the environment, a readable table and the final JSON
// line; it returns the exit code.
func report(stdout, stderr io.Writer, b *bench, name string, res *result) int {
	all := append(append([]round(nil), res.untraced...), res.traced...)
	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
	}
	mism := b.chk.mismatches()
	for _, m := range mism {
		fmt.Fprintln(stderr, "perfbench: digest mismatch:", m)
	}

	correct := len(mism) == 0 && failed == 0

	w := b.windowsFor(name)
	env := map[string]any{
		"workload": name, "seed": b.seed, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"gogc": envOr("GOGC", "default"), "warmup_uops": w.warmup, "measure_uops": w.measure,
		"rounds": len(res.untraced), "traced_rounds": len(res.traced),
		"jobs": res.samples["job_p50_ms"], "golden_fields": len(b.chk.fields),
		"round_wall_s": roundWalls(res.untraced), "host_spin_ms": res.spin,
	}
	eb, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(stdout, "env %s\n", eb)

	defs, vals := endToEnd, res.e2e
	if res.tr != nil {
		defs, vals = perLayer(), res.layer
	}
	fmt.Fprintf(stdout, "%-36s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-36s %16.6g  %-8s n=%d\n", d.name, res.e2e[d.name], d.unit, res.samples[d.name])
	}
	if res.tr != nil {
		for _, d := range perLayer() {
			fmt.Fprintf(stdout, "%-36s %16.6g  %s\n", d.name, res.layer[d.name], d.unit)
		}
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, map[string]mv{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Only a latency percentile reached by failed jobs (+Inf) gets
			// here; the run is already incorrect, and JSON has no infinity.
			fmt.Fprintf(stderr, "perfbench: %s is %v (failed jobs), left out\n", d.name, v)
			continue
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	jb, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", jb)
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d jobs failed, %d digest mismatches\n", failed, attempted, len(mism))
		return 1
	}
	return 0
}

func envOr(k, def string) string {
	if v := strings.TrimSpace(os.Getenv(k)); v != "" {
		return v
	}
	return def
}
