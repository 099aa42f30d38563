package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"specsched"
)

func TestMain(m *testing.M) {
	specsched.MaybeWorker() // trace_replay's sweep workers re-exec the test binary
	maybeSetupProbe()       // and so does paper_repro's set-up probe
	os.Exit(m.Run())
}

type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one test-sized invocation and decodes its last line.
func runTiny(t *testing.T, wl string, trace string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", wl, "-seed", "3", "-seconds", "1", "-trace", trace, "-tiny", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s exited %d\nstdout:\n%s\nstderr:\n%s", wl, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", wl, err, stdout.String())
	}
	return out
}

func checkMetrics(t *testing.T, wl string, out output, want []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", wl, len(out.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", wl, d.name, m, d.unit)
		}
	}
}

// TestSmoke runs every workload at test size, untraced and traced, and
// checks that each emits every metric with its unit and that every
// simulated result matched its golden digest.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"paper_repro", "service_mix", "trace_replay"} {
		t.Run(wl, func(t *testing.T) {
			out := runTiny(t, wl, "0")
			checkMetrics(t, wl, out, endToEnd)
			if !out.Correct || out.Failed != 0 || out.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: correct=%v failed=%d ok_frac=%v", wl, out.Correct, out.Failed, out.Metrics["ok_frac"].Value)
			}
			for _, d := range endToEnd {
				if out.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wl, d.name, out.Metrics[d.name].Value)
				}
			}
			checkMetrics(t, wl, runTiny(t, wl, "1"), perLayer())
		})
	}
}

// TestBenchmarkJSONMatches keeps the benchmark definition and the metrics
// the command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d = %s/%s, want %s/%s", i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestDigestCheck: a golden cell matches, and changing any one counter of
// it is caught.
func TestDigestCheck(t *testing.T) {
	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	r, err := specsched.NewSimulator(specsched.WithPreset("Baseline_0"), specsched.WithWorkload("mcf"),
		specsched.Warmup(100), specsched.Measure(600)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	key := "paper/w100.m600/Baseline_0/mcf"
	if !chk.checkRun(key, r) {
		t.Fatalf("golden mismatch for %s: %v", key, chk.mismatches())
	}
	r.Elapsed *= 3 // host time is not part of the digest
	if !chk.checkRun(key, r) {
		t.Errorf("Elapsed changed the digest")
	}
	for _, f := range runFields() {
		if f == "Workload" || f == "Config" {
			continue
		}
		bad := r
		v := reflect.ValueOf(&bad).Elem().FieldByName(f)
		v.SetInt(v.Int() + 1)
		if chk.checkRun(key, bad) {
			t.Errorf("changing %s went unnoticed", f)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Errorf("p90 of 99 samples (9 beyond) was reported")
	}
	if v, err := percentile(append(xs, 99), 0.9); err != nil || v != 89 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89 with 10 beyond", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Errorf("p50 of 19 samples (9 beyond) was reported")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	root := tr.add(0, "experiments", "report", "", at(0), at(100))
	tr.add(root, "core", "cell", "", at(10), at(50))
	tr.add(root, "core", "cell", "", at(30), at(70)) // overlaps the first
	tr.add(root, "core", "cell", "", at(90), at(120))
	self := tr.selfTimes()
	if self["experiments"] != 30 || self["core"] != 110 {
		t.Errorf("self times = %v, want experiments 30ns, core 110ns", self)
	}
}
