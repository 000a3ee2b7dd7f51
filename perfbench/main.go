// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints every metric by name with its unit, then, as its last
// line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with -trace 1 it carries the per-layer metrics
// of a separate traced run. Workloads, metrics and the layer each metric
// belongs to are described in README.md. Run it through run.py, which
// builds this module first:
//
//	python3 perfbench/run.py --workload compile-table3 --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are one invocation's arguments.
type options struct {
	workload string
	seconds  float64
	trace    bool
	// state is where the determinism guard keeps the counts of earlier
	// runs ("" disables the guard), and src the source tree whose hash
	// keys them.
	state, src string
	// plant, when set, alters the Table-3 references after set-up: the
	// tests plant a wrong one to check that it is caught.
	plant func([]*program)
	// dropLayer names a layer the traced run leaves out of its accounting:
	// the tests drop one to check that the layer times no longer add up.
	dropLayer string
}

// report is what a workload hands back: operations attempted and failed,
// the metrics it measured, and the counts the determinism guard pins.
type report struct {
	attempted, failed int64
	e2e, layer        sheet
	// counts must repeat exactly between two runs of one commit with the
	// same workload, mode and length.
	counts map[string]int64
	// notes are human-readable lines printed before the metrics.
	notes []string
}

// finish adds the metrics that cover the whole run.
func (r *report) finish() {
	r.layer.set("fail_ratio", "ratio", float64(r.failed)/float64(max(r.attempted, 1)))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload; the report's metrics cover the mode asked
// for (end-to-end untraced, or per-layer traced).
type workload struct {
	name string
	run  func(o options) (*report, error)
}

var workloads = []workload{
	{"compile-table3", runCompileTable3},
	{"measure-table3", runMeasureTable3},
	{"oracle-generated", runOracle},
	{"mccd-mixed", runMccd},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	// Every workload runs a fixed input set (README.md says why), so the
	// seed changes nothing.
	flag.Int64("seed", 1, "workload seed (every workload's inputs are fixed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.state, "state", "", "directory for the determinism guard's recorded counts")
	flag.StringVar(&o.src, "src", ".", "root of the source tree the determinism guard's records belong to")
	flag.Parse()
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	rep.finish()
	correct := rep.failed == 0
	if o.state != "" {
		// The counts belong to one version of the code. The build
		// directory that holds the state may lie inside the tree, and is
		// skipped.
		code, err := codeHash(o.src, filepath.Dir(o.state))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if err := guard(o.state, guardKey(code, w.name, trace, o.seconds), rep.counts); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: DETERMINISM GUARD FAILED: %v\n", err)
			correct = false
		}
	}
	out := rep.e2e
	if o.trace {
		out = rep.layer
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, s := range []*sheet{&rep.e2e, &rep.layer} {
		for _, name := range s.order {
			m := s.vals[name]
			fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out.vals})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one named value in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sheet is an ordered set of metrics.
type sheet struct {
	order []string
	vals  map[string]metric
}

func (s *sheet) set(name, unit string, v float64) {
	if s.vals == nil {
		s.vals = map[string]metric{}
	}
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vals[name] = metric{Value: v, Unit: unit}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile. With ten samples or fewer there
// is no such percentile and the maximum is returned as percentile 100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// opTimes reports the median and tail of per-operation times, in
// milliseconds, into the end-to-end sheet.
func opTimes(r *report, what string, xs []float64) {
	v, pct := tail(xs)
	r.e2e.set("op_ms_p50", "ms", median(xs))
	r.e2e.set("op_ms_tail", "ms", v)
	r.note("%s: p50 %.3f ms, tail p%.2f = %.3f ms over %d samples", what, median(xs), pct, v, len(xs))
}

// cpuTime returns the CPU time the process has used, over all its
// threads. Time the hypervisor takes the CPU away for (steal) is not
// charged to it, so, unlike wall time, it does not move with the load of
// other machines on the host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // getrusage(RUSAGE_SELF) cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock measures one operation: the process CPU time and the wall time
// it took.
func clock(f func()) (cpu, wall time.Duration) {
	c, w := cpuTime(), time.Now()
	f()
	return cpuTime() - c, time.Since(w)
}

// stopwatch adds up the wall and process CPU time of the stretches
// between its start and stop calls.
type stopwatch struct {
	wall, cpu time.Duration
	w0        time.Time
	c0        time.Duration
}

func (s *stopwatch) start() { s.w0, s.c0 = time.Now(), cpuTime() }

func (s *stopwatch) stop() {
	s.wall += time.Since(s.w0)
	s.cpu += cpuTime() - s.c0
}

// perPassTimes accumulates operation times by pass.
type perPassTimes []time.Duration

func (p *perPassTimes) add(pass int, d time.Duration) {
	for len(*p) <= pass {
		*p = append(*p, 0)
	}
	(*p)[pass] += d
}

// peakRSS reports the process's peak resident set size.
func peakRSS(r *report) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.e2e.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
}

// freeMemory collects garbage and gives the freed memory back to the
// operating system, so that what ran before does not stay resident.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS frees memory and resets the kernel's record of the
// process's peak resident set size to its current size (Linux
// /proc/self/clear_refs), so that a later peakRSSSince covers only what
// runs after it.
func resetPeakRSS() error {
	freeMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSSince reports the process's peak resident set size since the last
// resetPeakRSS, read from VmHWM in /proc/self/status.
func peakRSSSince(r *report) error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return err
			}
			r.e2e.set("peak_rss_mb", "MB", kb/1024)
			return nil
		}
	}
	return fmt.Errorf("/proc/self/status has no VmHWM")
}

// hostTicks returns the machine's CPU time and the part of it the
// hypervisor took (steal), in clock ticks, from the first line of
// /proc/stat; zeros where it cannot be read.
func hostTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// timedSetup runs a workload's set-up several times and reports the median
// of its process CPU times as setup_s, so one slow repetition does not
// decide it: at least three times, and more while the repetitions so far
// took under half a second. The last repetition's result is kept.
func timedSetup[T any](r *report, f func() (T, error)) (T, error) {
	var out T
	var ds []float64
	for total := 0.0; len(ds) < 3 || (total < 0.5 && len(ds) < 50); {
		var v T
		var err error
		cpu, _ := clock(func() { v, err = f() })
		if err != nil {
			return out, err
		}
		ds = append(ds, cpu.Seconds())
		total += cpu.Seconds()
		out = v
	}
	r.e2e.set("setup_s", "s", median(ds))
	return out, nil
}

// guardKey names the determinism guard's record of one workload and mode
// on one version of the code. mccd-mixed sends more requests in a longer
// run, so the run length is part of the key too.
func guardKey(code, workload string, trace int, seconds float64) string {
	return fmt.Sprintf("%s-%s-trace%d-s%g", code, workload, trace, seconds)
}

// codeHash hashes the Go sources under root: go.mod, go.sum and every .go
// file, outside hidden directories and the directory skip.
func codeHash(root, skip string) (string, error) {
	skip, err := filepath.Abs(skip)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if path != root && (strings.HasPrefix(d.Name(), ".") || abs == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

// guard compares the counts against those recorded by an earlier run with
// the same key, and records them when there are none yet.
func guard(dir, key string, counts map[string]int64) error {
	path := dir + "/" + key + ".json"
	if old, err := os.ReadFile(path); err == nil {
		var want map[string]int64
		if err := json.Unmarshal(old, &want); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		var diffs []string
		for k, v := range want {
			if got, ok := counts[k]; !ok || got != v {
				diffs = append(diffs, fmt.Sprintf("%s: recorded %d, now %d", k, v, got))
			}
		}
		for k := range counts {
			if _, ok := want[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: not recorded before", k))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("counts differ from an earlier run of %s:\n  %s", key, strings.Join(diffs, "\n  "))
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(counts, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
