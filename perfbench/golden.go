package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sync"

	"specsched/results"
)

// golden.json holds the reference digest of every simulated cell, report
// text and recorded trace the benchmark can produce, keyed by workload,
// window and cell. It is written by -write-golden and checked on every run,
// so a change that only claims speed must leave every simulated statistic
// bit-identical.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile is the on-disk form: the results.Run fields the digests
// cover, in hashing order, and key → hex digest.
type goldenFile struct {
	Fields  []string          `json:"fields"`
	Digests map[string]string `json:"digests"`
}

// checker compares observed digests against the golden file and records
// every key it saw, so -write-golden can emit exactly the observed set.
type checker struct {
	fields []string
	want   map[string]string

	mu       sync.Mutex
	seen     map[string]string
	mismatch []string
}

func newChecker() (*checker, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Fields) == 0 {
		g.Fields = runFields()
	}
	return &checker{fields: g.Fields, want: g.Digests, seen: map[string]string{}}, nil
}

// runFields lists every results.Run field except Elapsed, the only one
// that depends on the host rather than the simulated machine.
func runFields() []string {
	t := reflect.TypeOf(results.Run{})
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i).Name; f != "Elapsed" {
			out = append(out, f)
		}
	}
	return out
}

// runDigest hashes the golden fields of r by name, so a counter added to
// results.Run later is simply not covered rather than breaking every
// digest; a covered counter that disappears is an error.
func (c *checker) runDigest(r results.Run) (string, error) {
	v := reflect.ValueOf(r)
	h := fnv.New64a()
	for _, f := range c.fields {
		fv := v.FieldByName(f)
		if !fv.IsValid() {
			return "", fmt.Errorf("results.Run has no field %s", f)
		}
		fmt.Fprintf(h, "%s=%v;", f, fv.Interface())
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func textDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// check records digest d under key and reports whether it matches the
// golden file. A key with no golden entry is a mismatch: the benchmark
// only produces cells whose reference it holds.
func (c *checker) check(key, d string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[key] = d
	if c.want[key] == d {
		return true
	}
	c.mismatch = append(c.mismatch, fmt.Sprintf("%s: got %s want %q", key, d, c.want[key]))
	return false
}

// checkRun is check over a run's digest.
func (c *checker) checkRun(key string, r results.Run) bool {
	d, err := c.runDigest(r)
	if err != nil {
		d = "error: " + err.Error()
	}
	return c.check(key, d)
}

func (c *checker) mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.mismatch...)
}

// write merges the observed digests into the golden file at path.
func (c *checker) write(path string) error {
	g := goldenFile{Fields: c.fields, Digests: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		var old goldenFile
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range old.Digests {
			g.Digests[k] = v
		}
	}
	c.mu.Lock()
	for k, v := range c.seen {
		g.Digests[k] = v
	}
	c.mu.Unlock()
	b, err := json.MarshalIndent(g, "", " ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
