package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/tv"
)

// figure3Passes are the optimization passes reported one by one as
// opt.<pass>.*; every other pipeline pass (legalize, reorder-blocks,
// fold-branches, delete-jumps-to-next, lower-jump-tables) is summed into
// opt.other.ms so the layer times still add up.
var figure3Passes = []string{
	"cse", "code-motion", "strength-reduction", "dead-variables",
	"instruction-selection", "merge-blocks", "regalloc", "dead-code",
	"branch-chaining", "promote-locals", "fold-constants", "delay-slots",
}

// maxIterations is pipeline.Config.MaxIterations' default: a function whose
// optimize-func span reports this many iterations stopped at the cap.
const maxIterations = 30

// layers accumulates per-layer self times and counts over a traced run. A
// layer's self time is the time of its spans minus the time their child
// spans cover.
//
// Time enters through top-level spans: a layer call the benchmark timed
// or, on mccd-mixed, one request from sending to its response. Each
// top-level span's time is split over the layers: every child span to its
// own layer, and what the children leave of their parent to the parent's
// layer, through rest, which records a remainder that comes out negative.
// So the self times add up to the top-level spans exactly, unless a layer
// is missing from the accounting or child spans overlap; the service
// optimizes a program's functions in parallel, and overlap records by how
// much their spans overlap.
type layers struct {
	mu   sync.Mutex
	self map[string]time.Duration
	n    map[string]int64
	// spans is the total time of the top-level spans.
	spans   time.Duration
	overlap time.Duration
	// negative describes each remainder that came out below zero: child
	// spans that do not fit in their parent.
	negative []string
	// aside holds times measured beside the operations, not part of them
	// (vm.fetch_hook, and verification on compile-table3).
	aside map[string]time.Duration
	// drop names a layer whose time is left out of the accounting; the
	// tests set it to check that a missing layer is caught.
	drop string
}

func newLayers(drop string) *layers {
	return &layers{self: map[string]time.Duration{}, n: map[string]int64{}, aside: map[string]time.Duration{}, drop: drop}
}

// charge adds d to layer's self time; l.mu is held.
func (l *layers) charge(layer string, d time.Duration) {
	if layer != l.drop {
		l.self[layer] += d
	}
}

// rest charges to layer what its children leave of a whole span; l.mu is
// held.
func (l *layers) rest(layer string, whole, children time.Duration) {
	if children > whole {
		l.negative = append(l.negative, fmt.Sprintf("%s: children cover %v of a %v span", layer, children, whole))
	}
	l.charge(layer, whole-children)
}

// top records a top-level span of d, all of it layer's own time. The
// methods of a nil *layers do nothing but run the work they are given, so
// one code path serves untraced and traced runs.
func (l *layers) top(layer string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans += d
	l.charge(layer, d)
	l.mu.Unlock()
}

func (l *layers) count(name string, v int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.n[name] += v
	l.mu.Unlock()
}

// timed runs f as a top-level span of layer.
func (l *layers) timed(layer string, f func()) {
	if l == nil {
		f()
		return
	}
	start := time.Now()
	f()
	l.top(layer, time.Since(start))
}

// besides records d under name, apart from the operations' time.
func (l *layers) besides(name string, d time.Duration) {
	l.mu.Lock()
	l.aside[name] += d
	l.mu.Unlock()
}

// merge adds other's times, but not its counts, to l.
func (l *layers) merge(other *layers) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for layer, d := range other.self {
		l.self[layer] += d
	}
	l.spans += other.spans
	l.overlap += other.overlap
	l.negative = append(l.negative, other.negative...)
}

// sum is the total self time over every layer.
func (l *layers) sum() time.Duration {
	var s time.Duration
	for _, d := range l.self {
		s += d
	}
	return s
}

// collector is the obs.Tracer of one traced optimize call. It keeps the
// pipeline's events and the spans of the translation-validation hook.
type collector struct {
	mu     sync.Mutex
	events []*obs.Event
	tv     []tvSpan
}

type tvSpan struct {
	fn         string
	start, dur int64
	rejected   bool
}

func (c *collector) Emit(ev *obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// certHook is a replicate.Options.OnCertificate hook that checks every
// certificate with tv.Validate and records how long that took.
func (c *collector) certHook(f *cfg.Func, cert *tv.Certificate) {
	start := time.Now()
	vs := tv.Validate(f, cert)
	span := tvSpan{fn: f.Name, start: start.UnixNano(), dur: int64(time.Since(start)), rejected: len(vs) > 0}
	c.mu.Lock()
	c.tv = append(c.tv, span)
	c.mu.Unlock()
}

// account charges one optimize call's spans to the layers and returns the
// time they cover: the optimize-func spans' union, or the optimize span
// around them where there is one. optimize is the benchmark-timed
// duration of the pipeline.Optimize call, a top-level span; when it is 0
// the events come from the service, whose "optimize" phase span takes its
// place when there is one.
func (l *layers) account(c *collector, optimize time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if optimize > 0 {
		l.spans += optimize
	}
	listed := map[string]bool{}
	for _, p := range figure3Passes {
		listed[p] = true
	}
	passSum := map[string]time.Duration{} // per function, since its last optimize-func span
	var funcs [][2]int64                  // the optimize-func spans' intervals
	var phases time.Duration              // and their total
	for _, ev := range c.events {
		d := time.Duration(ev.DurNS)
		switch {
		case ev.Type == obs.EvPass && ev.Name == "replicate":
			// The tv.Validate calls of the certificate hook run inside
			// the pass.
			var tvd time.Duration
			for _, s := range c.tv {
				if s.fn == ev.Func && s.start >= ev.TimeNS && s.start < ev.TimeNS+ev.DurNS {
					tvd += time.Duration(s.dur)
				}
			}
			l.rest("replicate", d, tvd)
			l.n["replicate.rtl_growth"] += int64(ev.RTLsAfter - ev.RTLsBefore)
			passSum[ev.Func] += d
		case ev.Type == obs.EvPass:
			name := "opt.other"
			if listed[ev.Name] {
				name = "opt." + ev.Name
				l.n[name+".runs"]++
				if ev.Changed && ev.RTLsBefore == ev.RTLsAfter && ev.BlocksBefore == ev.BlocksAfter {
					l.n[name+".changed_same_size"]++
				}
			}
			l.charge(name, d)
			passSum[ev.Func] += d
		case ev.Type == obs.EvPhase && ev.Name == "optimize-func":
			// The phase span minus its passes: the verify-each checks run
			// between passes, inside the phase.
			l.rest("pipeline.verify_each", d, passSum[ev.Func])
			passSum[ev.Func] = 0
			funcs = append(funcs, [2]int64{ev.TimeNS, ev.TimeNS + ev.DurNS})
			phases += d
			l.n["pipeline.iterations"] += int64(ev.Iter)
			if ev.Iter >= maxIterations {
				l.n["pipeline.cap_hits"]++
			}
		case ev.Type == obs.EvPhase && ev.Name == "optimize" && optimize == 0:
			optimize = d
		}
	}
	// The service optimizes a program's functions in parallel, so their
	// spans may overlap: the pipeline's own time is what their union
	// leaves uncovered.
	covered := union(funcs)
	l.overlap += phases - covered
	if optimize > 0 {
		l.rest("pipeline", optimize, covered)
		covered = optimize
	}
	for _, s := range c.tv {
		l.charge("tv", time.Duration(s.dur))
		l.n["tv.certificates"]++
		if s.rejected {
			l.n["tv.rejections"]++
		}
	}
	return covered
}

// union returns the total length covered by the intervals.
func union(iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return time.Duration(total)
}

// The traced run's checks on its own timing.
const (
	// maxTraceOverhead bounds obs.trace_overhead_ratio both ways: the
	// traced time may differ from the untraced time by at most this
	// factor.
	maxTraceOverhead = 1.5
	// minSpanShare is the least share of the traced operations' time that
	// their top-level spans must cover; the rest is the benchmark's own
	// work between layer calls.
	minSpanShare = 0.90
)

// checkLayers checks a traced run's timing: every remainder is
// non-negative, the layer self times add up to the top-level spans (plus
// the overlap of parallel spans), the top-level spans cover all but a
// small share of the traced wall time, and the traced CPU time is within
// maxTraceOverhead of the untraced CPU time. CPU time leaves out what the
// hypervisor takes away (steal), which wall time would charge to tracing.
// It returns what failed.
func checkLayers(l *layers, traced stopwatch, untraced time.Duration) []string {
	var bad []string
	if n := len(l.negative); n > 0 {
		bad = append(bad, fmt.Sprintf("%d layer remainders are negative, first %s", n, l.negative[0]))
	}
	if sum, want := l.sum(), l.spans+l.overlap; sum != want {
		bad = append(bad, fmt.Sprintf("layer self times add up to %.3f ms, the top-level spans and their overlap to %.3f ms", ms(sum), ms(want)))
	}
	if l.spans > traced.wall || float64(l.spans) < minSpanShare*float64(traced.wall) {
		bad = append(bad, fmt.Sprintf("top-level spans cover %.3f ms of %.3f ms traced, outside [%.2f, 1]", ms(l.spans), ms(traced.wall), minSpanShare))
	}
	if ratio := traced.cpu.Seconds() / untraced.Seconds(); !(ratio <= maxTraceOverhead && ratio >= 1/maxTraceOverhead) {
		bad = append(bad, fmt.Sprintf("traced CPU time is %.3f times the untraced CPU time, beyond %.2f", ratio, maxTraceOverhead))
	}
	return bad
}

// layerSheet fills the per-layer metrics from a traced run. Every workload
// reports every metric; a layer the workload does not use reads 0.
func layerSheet(r *report, l *layers, traced stopwatch, untraced time.Duration) {
	s := &r.layer
	msOf := func(layer string) float64 { return ms(l.self[layer] + l.aside[layer]) }
	rate := func(n int64, layer string) float64 {
		if d := l.self[layer]; d > 0 {
			return float64(n) / d.Seconds()
		}
		return 0
	}
	s.set("mcc.ms", "ms", msOf("mcc"))
	s.set("mcc.rtls_per_s", "1/s", rate(l.n["mcc.rtls"], "mcc"))
	s.set("pipeline.ms", "ms", msOf("pipeline"))
	s.set("pipeline.iterations", "count", float64(l.n["pipeline.iterations"]))
	s.set("pipeline.cap_hits", "count", float64(l.n["pipeline.cap_hits"]))
	s.set("pipeline.verify_each_ms", "ms", msOf("pipeline.verify_each"))
	for _, p := range figure3Passes {
		s.set("opt."+p+".ms", "ms", msOf("opt."+p))
		s.set("opt."+p+".runs", "count", float64(l.n["opt."+p+".runs"]))
		s.set("opt."+p+".changed_same_size", "count", float64(l.n["opt."+p+".changed_same_size"]))
	}
	s.set("opt.other.ms", "ms", msOf("opt.other"))
	s.set("replicate.ms", "ms", msOf("replicate"))
	reps, rolls := l.n["replicate.replications"], l.n["replicate.rollbacks"]
	s.set("replicate.replications", "count", float64(reps))
	s.set("replicate.rollbacks", "count", float64(rolls))
	useful := 0.0
	if reps+rolls > 0 {
		useful = float64(reps) / float64(reps+rolls)
	}
	s.set("replicate.useful_ratio", "ratio", useful)
	s.set("replicate.rtls_copied", "count", float64(l.n["replicate.rtls_copied"]))
	s.set("replicate.branches_folded", "count", float64(l.n["replicate.branches_folded"]))
	s.set("replicate.rtl_growth", "count", float64(l.n["replicate.rtl_growth"]))
	s.set("verify.ms", "ms", msOf("verify"))
	s.set("tv.ms", "ms", msOf("tv"))
	s.set("tv.certificates", "count", float64(l.n["tv.certificates"]))
	s.set("tv.rejections", "count", float64(l.n["tv.rejections"]))
	s.set("encode.ms", "ms", msOf("encode"))
	s.set("asm.ms", "ms", msOf("asm"))
	s.set("vm.ms", "ms", msOf("vm"))
	s.set("vm.insts_per_s", "1/s", rate(l.n["vm.insts"], "vm"))
	s.set("vm.fetch_hook_ms", "ms", msOf("vm.fetch_hook"))
	s.set("cache.ms", "ms", msOf("cache"))
	s.set("cache.fetches_per_s", "1/s", rate(l.n["cache.fetches"], "cache"))
	s.set("service.ms", "ms", msOf("service"))
	ratio := traced.cpu.Seconds() / untraced.Seconds()
	s.set("obs.trace_overhead_ratio", "ratio", ratio)
	r.note("layer self times add up to %.1f ms; top-level spans %.1f ms (overlap %.1f ms) of %.1f ms traced; CPU time traced %.1f ms, untraced %.1f ms (overhead ratio %.3f)",
		ms(l.sum()), ms(l.spans), ms(l.overlap), ms(traced.wall), ms(traced.cpu), ms(untraced), ratio)
	for _, b := range checkLayers(l, traced, untraced) {
		r.note("FAILED: %s", b)
		r.failed++
	}
	if n := l.n["tv.rejections"]; n > 0 {
		r.note("FAILED: the translation validator rejected %d certificates", n)
		r.failed++
	}
	for _, name := range []string{
		"pipeline.iterations", "pipeline.cap_hits", "replicate.replications", "replicate.rollbacks",
		"replicate.rtls_copied", "replicate.branches_folded", "replicate.rtl_growth", "tv.certificates",
	} {
		r.counts[name] = l.n[name]
	}
	for _, p := range figure3Passes {
		r.counts["opt."+p+".runs"] = l.n["opt."+p+".runs"]
		r.counts["opt."+p+".changed_same_size"] = l.n["opt."+p+".changed_same_size"]
	}
}
