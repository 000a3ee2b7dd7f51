package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkSheet requires the sheet to hold exactly the spec's metrics, each
// with the spec's unit.
func checkSheet(t *testing.T, what string, s sheet, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := s.vals[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	if len(s.vals) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(s.vals), len(want))
	}
}

// TestSmoke runs every workload of BENCHMARK.json at minimal length, untraced
// and traced, and checks that each emits every metric it names with its
// unit and that no operation fails. The oracle workload checks one cheap
// generator seed instead of the full range.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, the benchmark has %s", i, w.Name, workloads[i].name)
		}
		run := workloads[i].run
		if w.Name == "oracle-generated" {
			run = func(o options) (*report, error) { return runOracleSeeds(o, []int64{8}) }
		}
		for _, traced := range []bool{false, true} {
			r, err := run(options{workload: w.Name, seconds: 0.5, trace: traced})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			r.finish()
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.Name, traced, r.failed, r.attempted, r.notes)
			}
			if traced {
				checkSheet(t, w.Name+" traced", r.layer, spec.PerLayer)
			} else {
				checkSheet(t, w.Name, r.e2e, spec.EndToEnd)
			}
		}
	}
}

// TestPlantedReferenceFails plants a wrong reference output hash for one
// Table-3 program and requires every measure-table3 cell of that program
// to count as failed.
func TestPlantedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs measure-table3")
	}
	r, err := runMeasureTable3(options{workload: "measure-table3", seconds: 0.5, plant: func(ps []*program) {
		for _, p := range ps {
			if p.Name == "wc" {
				p.ref.output[0] ^= 1
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// wc on 3 machines at 4 levels.
	if r.failed != 12 || r.attempted != 168 {
		t.Fatalf("%d of %d cells failed, want 12 of 168", r.failed, r.attempted)
	}
}

// TestTail pins the tail percentile rule: the highest percentile with at
// least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:10]); v != 10 || pct != 100 {
		t.Errorf("tail of 1..10 = %v at p%v, want the maximum 10 at p100", v, pct)
	}
}

// TestGuard checks that the determinism guard's record belongs to one
// version of the code: a changed count fails under the same code hash and
// passes under another.
func TestGuard(t *testing.T) {
	dir := t.TempDir()
	key := func(code string) string { return guardKey(code, "compile-table3", 0, 12) }
	for _, c := range []struct {
		code  string
		bytes int64
		fail  bool
	}{
		{"aaaa", 1, false}, // records
		{"aaaa", 1, false},
		{"aaaa", 2, true},
		{"bbbb", 2, false},
	} {
		err := guard(dir, key(c.code), map[string]int64{"code_bytes": c.bytes})
		if (err != nil) != c.fail {
			t.Errorf("code %s, code_bytes %d: guard error %v, want failure %v", c.code, c.bytes, err, c.fail)
		}
	}
}

// TestCodeHash checks that the guard's code hash follows the Go sources
// and nothing else.
func TestCodeHash(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	build := filepath.Join(root, "build")
	hash := func() string {
		t.Helper()
		h, err := codeHash(root, build)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	write("go.mod", "module m\n")
	write("a/x.go", "package a\n")
	write("README.md", "one\n")
	write(".bench_build/y.go", "package y\n")
	write("build/z.go", "package z\n")
	h := hash()
	for _, f := range []string{"README.md", ".bench_build/y.go", "build/z.go"} {
		write(f, "changed\n")
		if hash() != h {
			t.Errorf("changing %s changed the code hash", f)
		}
	}
	for _, f := range []string{"a/x.go", "go.mod", "a/new.go"} {
		write(f, "changed "+f+"\n")
		if next := hash(); next == h {
			t.Errorf("changing %s left the code hash as it was", f)
		} else {
			h = next
		}
	}
}

// TestDroppedLayerFails leaves one layer out of the traced run's
// accounting and requires the run to fail: the layer self times no longer
// add up to the top-level spans.
func TestDroppedLayerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs compile-table3 traced")
	}
	for _, layer := range []string{"opt.cse", "mcc"} {
		r, err := runCompileTable3(options{workload: "compile-table3", seconds: 0.5, trace: true, dropLayer: layer})
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 1 || !strings.Contains(strings.Join(r.notes, "\n"), "FAILED: layer self times add up to") {
			t.Errorf("dropping %s: %d failures, want 1 for the layer sum: %v", layer, r.failed, r.notes)
		}
	}
}

// TestNegativeRemainderFails checks that a parent span its children do not
// fit in fails the traced run's check, even though the times add up.
func TestNegativeRemainderFails(t *testing.T) {
	l := newLayers("")
	l.spans = 10 * time.Millisecond
	l.charge("opt.cse", 12*time.Millisecond)
	l.rest("pipeline", 10*time.Millisecond, 12*time.Millisecond)
	ten := stopwatch{wall: 10 * time.Millisecond, cpu: 10 * time.Millisecond}
	bad := checkLayers(l, ten, 10*time.Millisecond)
	if len(bad) != 1 || !strings.Contains(bad[0], "negative") {
		t.Errorf("checkLayers = %q, want one failure for the negative remainder", bad)
	}
	l.negative = nil
	if bad := checkLayers(l, ten, 10*time.Millisecond); len(bad) != 0 {
		t.Errorf("checkLayers = %q, want none", bad)
	}
	if bad := checkLayers(l, stopwatch{wall: 20 * time.Millisecond, cpu: 20 * time.Millisecond}, 10*time.Millisecond); len(bad) != 2 {
		t.Errorf("checkLayers with half the traced time uncovered and twice the untraced time = %q, want two failures", bad)
	}
}
