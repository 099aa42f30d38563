package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"specsched"
	"specsched/internal/service"
)

// serviceMix drives an in-process sweep service over loopback HTTP with a
// closed loop of two clients: each submits a small sweep and reads its
// NDJSON cell stream to the end before submitting the next. Every job is
// Baseline_0 plus one other preset over two workloads, so half of its
// cells are Baseline_0 cells from the hot set the set-up fills and half
// are cells no earlier job in the round asked for: every job sees the
// same share of cache-served to simulated cells.
type serviceMix struct {
	b    *bench
	win  windows
	jobs []specsched.SweepSpec
	log  serviceLog
}

// serviceLog passes the service's first few log lines to stderr and counts
// the rest, so a message the service repeats every job does not drown the
// output.
type serviceLog struct {
	mu sync.Mutex
	n  int
}

func (l *serviceLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n++; l.n <= 3 {
		fmt.Fprintf(os.Stderr, "service: "+format+"\n", args...)
	}
}

// freshConfigs are the presets jobs pair with Baseline_0. A round pairs
// each with every workload exactly once, so every seed's round simulates
// the same cells and only their grouping into jobs and their order vary.
var freshConfigs = []string{
	"SpecSched_4", "SpecSched_4_Crit", "SpecSched_4_Filter", "SpecSched_4_Shift",
	"SpecSched_4_Ctr", "SpecSched_4_BankPred", "SpecSched_4_Combined", "SpecSched_2",
	"SpecSched_2_Crit", "SpecSched_0", "Baseline_2", "Baseline_4",
}

// Closed-loop clients, and per-job sweep concurrency on the server:
// together they keep at most two cells simulating at once.
const (
	serviceClients = 2
	serviceMaxRun  = 2
	serviceJobs    = 1
)

func newServiceMix(b *bench) *serviceMix {
	s := &serviceMix{b: b, win: b.windowsFor("service_mix")}
	groups := len(freshConfigs) // 18 jobs each: 216 a round
	if b.tiny {
		groups = 6 // the fewest with ten samples beyond p90
	}
	rng := rand.New(rand.NewSource(b.seed))
	wls := specsched.WorkloadNames()
	for _, g := range rng.Perm(len(freshConfigs))[:groups] {
		perm := rng.Perm(len(wls))
		for i := 0; i+1 < len(perm); i += 2 {
			s.jobs = append(s.jobs, s.spec([]string{"Baseline_0", freshConfigs[g]},
				[]string{wls[perm[i]], wls[perm[i+1]]}))
		}
	}
	return s
}

func (s *serviceMix) spec(configs, wls []string) specsched.SweepSpec {
	w, m := s.win.warmup, s.win.measure
	return specsched.SweepSpec{Configs: configs, Workloads: wls, Jobs: serviceJobs, Warmup: &w, Measure: &m}
}

func (s *serviceMix) cellKey(c service.CellRecord) string {
	return fmt.Sprintf("service/%s/%s/%s#%d", s.win, c.Config, c.Workload, c.Seed)
}

// server is one running service instance behind a loopback listener.
type server struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	state  string
}

func (s *serviceMix) start(ctx context.Context) (*server, error) {
	state, err := os.MkdirTemp(s.b.dir, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		StateDir: state, MaxRunning: serviceMaxRun, SweepJobs: serviceJobs, MaxWorkers: -1,
		Logf: s.log.logf,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sv := &server{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
		state:  state,
	}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	for {
		resp, err := sv.client.Get(sv.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if ctx.Err() != nil {
			sv.stop()
			return nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and the service down and waits for both.
func (sv *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sv.hs.Shutdown(ctx) // a timeout here leaves nothing the benchmark reads
	<-sv.served
	sv.srv.Close()
	sv.client.CloseIdleConnections()
	os.RemoveAll(sv.state)
}

// jobResult is what one submit → last-cell exchange observed.
type jobResult struct {
	latency, submit, firstCell time.Duration
	cells                      []service.CellRecord
	rejected                   bool
	err                        error
}

// do submits one job and reads its cell stream to the end. With a tracer
// it records the job, its submit and stream, and one core span per
// freshly simulated cell, reconstructed from the cell's Elapsed and ending
// when its line arrived.
func (sv *server) do(ctx context.Context, spec specsched.SweepSpec, tr *tracer, parent int, job string) jobResult {
	var res jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	js := tr.begin(parent, "service", "job", job)
	defer tr.end(js)
	ss := tr.begin(js, "service", "submit", job)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set(service.ClientHeader, "perfbench")
	resp, err := sv.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	res.submit = time.Since(t0)
	tr.end(ss)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		res.rejected, res.err = true, fmt.Errorf("submit rejected: %s", resp.Status)
		return res
	case resp.StatusCode != http.StatusAccepted:
		res.err = fmt.Errorf("submit: %s", resp.Status)
		return res
	case derr != nil:
		res.err = fmt.Errorf("submit response: %w", derr)
		return res
	}

	stream := tr.begin(js, "service", "stream", job)
	defer tr.end(stream)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, sv.url+"/v1/sweeps/"+st.ID+"/cells", nil)
	if err != nil {
		res.err = err
		return res
	}
	resp, err = sv.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		if len(res.cells) == 0 {
			res.firstCell = now.Sub(t0)
		}
		var c service.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			res.err = fmt.Errorf("cell line: %w", err)
			return res
		}
		res.cells = append(res.cells, c)
		if c.Run != nil && !c.Deduped {
			tr.add(stream, "core", "cell", job, now.Add(-c.Run.Elapsed), now)
		}
	}
	if err := sc.Err(); err != nil {
		res.err = err
		return res
	}
	res.latency = time.Since(t0)
	return res
}

func (s *serviceMix) round(ctx context.Context, tr *tracer, a *acc) (round, error) {
	r := round{baseIPC: map[baseCell]float64{}}
	traced := tr != nil

	// Set-up: server start, readiness, and the hot set — Baseline_0 over
	// the whole suite — simulated once so every job's Baseline_0 cells are
	// cache hits.
	t0 := time.Now()
	sv, err := s.start(ctx)
	if err != nil {
		return r, err
	}
	defer sv.stop()
	hot := sv.do(ctx, s.spec([]string{"Baseline_0"}, specsched.WorkloadNames()), nil, 0, "hot")
	if hot.err != nil {
		return r, fmt.Errorf("hot-set fill: %w", hot.err)
	}
	for _, c := range hot.cells {
		if c.Error != "" || c.Run == nil {
			return r, fmt.Errorf("hot-set cell %s/%s failed: %s", c.Config, c.Workload, c.Error)
		}
		s.b.chk.checkRun(s.cellKey(c), *c.Run) // a mismatch fails the run; the jobs still run
	}
	r.setups = []float64{time.Since(t0).Seconds()}

	stats0 := sv.srv.Cache().Stats()
	root := tr.begin(0, "specsched", "round", "service_mix")
	watch := startWatch()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(s.jobs) || ctx.Err() != nil {
					return
				}
				res := sv.do(ctx, s.jobs[k], tr, root, fmt.Sprint("job-", k))
				mu.Lock()
				s.tally(&r, a, s.jobs[k], res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall, r.cpu = watch.stop()
	tr.end(root)
	if ctx.Err() != nil {
		return r, ctx.Err()
	}
	if traced {
		st := sv.srv.Cache().Stats()
		served := float64(st.Hits - stats0.Hits + st.Deduped - stats0.Deduped)
		a.add("dedup_served", served)
		a.add("dedup_all", served+float64(st.Simulated-stats0.Simulated))
		// µ-ops this process simulated: the hot fill plus every fresh cell.
		a.add("uops", float64(st.Simulated*(s.win.warmup+s.win.measure)))
		a.add("traced_round", 1)
	}
	return r, nil
}

// tally folds one job's outcome into the round: a job is ok only if it
// was admitted, streamed every cell of its grid, and every cell matched
// its golden digest.
func (s *serviceMix) tally(r *round, a *acc, spec specsched.SweepSpec, res jobResult) {
	r.attempted++
	ok := res.err == nil && len(res.cells) == len(spec.Configs)*len(spec.Workloads)
	for _, c := range res.cells {
		if c.Error != "" || c.Run == nil || !s.b.chk.checkRun(s.cellKey(c), *c.Run) {
			ok = false
			continue
		}
		r.committed += c.Run.Committed
		if c.Config == "Baseline_0" {
			r.baseIPC[baseCell{c.Workload, c.Seed}] = c.Run.IPC()
		}
		if a != nil {
			addRunCounters(a, *c.Run)
			if !c.Deduped && c.Run.Elapsed > 0 {
				a.add("cell_ms", ms(c.Run.Elapsed))
			}
		}
	}
	if ok {
		r.jobs = append(r.jobs, ms(res.latency))
	} else {
		r.failed++
		r.jobs = append(r.jobs, math.Inf(1))
		if res.err != nil && !errors.Is(res.err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "perfbench: service job:", res.err)
		}
	}
	if a != nil {
		a.add("submits", 1)
		if res.rejected {
			a.add("rejected", 1)
		}
		if res.err == nil {
			a.add("submit_ms", ms(res.submit))
			a.add("service_first_ms", ms(res.firstCell))
		}
	}
}

// probe runs a seeded sample of the round's job specs in process against
// a cache holding the hot set — the sweep the service runs for a job,
// without HTTP — timing sweep start to first cell, and times a sample of
// fresh cells through Simulator.Run.
func (s *serviceMix) probe(ctx context.Context, a *acc) error {
	cache := specsched.NewCellCache(0)
	hot, err := specsched.NewSweepFromSpec(s.spec([]string{"Baseline_0"}, specsched.WorkloadNames()),
		specsched.SweepCellCache(cache))
	if err != nil {
		return err
	}
	if _, err := hot.Run(ctx); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.b.seed))
	var cells []probeCell
	for i := 0; i < 20; i++ {
		spec := s.jobs[rng.Intn(len(s.jobs))]
		var first time.Duration
		var once sync.Once
		t0 := time.Now()
		sw, err := specsched.NewSweepFromSpec(spec, specsched.SweepCellCache(cache),
			specsched.SweepProgress(func(specsched.Progress) { once.Do(func() { first = time.Since(t0) }) }))
		if err != nil {
			return err
		}
		if _, err := sw.Run(ctx); err != nil {
			return err
		}
		a.add("first_cell_ms", ms(first))
		if i < 8 {
			c, wl := spec.Configs[1], spec.Workloads[0]
			cells = append(cells, probeCell{fmt.Sprintf("service/%s/%s/%s#0", s.win, c, wl), specsched.NewSimulator(
				specsched.WithPreset(c), specsched.WithWorkload(wl),
				specsched.Warmup(s.win.warmup), specsched.Measure(s.win.measure))})
		}
	}
	return probeCore(ctx, s.b.chk, a, cells)
}

// golden simulates every cell any seed's job list can draw: Baseline_0
// and each fresh preset over the whole suite.
func (s *serviceMix) golden(ctx context.Context) error {
	sw, err := specsched.NewSweepFromSpec(s.spec(append([]string{"Baseline_0"}, freshConfigs...), specsched.WorkloadNames()))
	if err != nil {
		return err
	}
	cells, err := sw.Run(ctx)
	if err != nil {
		return err
	}
	for _, c := range cells {
		s.b.chk.checkRun(s.cellKey(service.CellRecord{Config: c.Config, Workload: c.Workload, Seed: c.Seed}), c.Run)
	}
	return nil
}
