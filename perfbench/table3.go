package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/verify"
	"repro/internal/vm"
)

func newReport() *report { return &report{counts: map[string]int64{}} }

// program is one Table-3 program with what the benchmark knows about it
// before measuring: its input size and its reference behaviour.
type program struct {
	bench.Program
	// rtls is the program's size entering the optimizer.
	rtls int64
	ref  reference
}

// reference is a program's behaviour from the unoptimized build
// (mcc.Compile then vm.Run, no pipeline), as the differential oracle
// takes it: the optimized builds must reproduce it exactly.
type reference struct {
	output [sha256.Size]byte
	exit   int64
}

func (r reference) matches(output []byte, exit int64) bool {
	return sha256.Sum256(output) == r.output && exit == r.exit
}

// loadTable3 compiles the 14 Table-3 programs and, with references set,
// runs each unoptimized build to record its reference behaviour.
func loadTable3(references bool) ([]*program, error) {
	var out []*program
	for _, bp := range bench.Programs() {
		p := &program{Program: bp}
		prog, err := mcc.Compile(bp.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bp.Name, err)
		}
		p.rtls = inputRTLs(prog)
		if references {
			res, err := vm.Run(prog, vm.Config{Input: []byte(bp.Input)})
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", bp.Name, err)
			}
			p.ref = reference{sha256.Sum256(res.Output), res.ExitCode}
		}
		out = append(out, p)
	}
	return out, nil
}

func inputRTLs(prog *cfg.Program) int64 {
	var n int64
	for _, f := range prog.Funcs {
		n += int64(f.NumRTLs())
	}
	return n
}

// cell is one measurement cell: program × machine × level.
type cell struct {
	p  *program
	m  *machine.Machine
	lv pipeline.Level
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/%s", c.p.Name, c.m.Name, c.lv) }

// cells returns the suite × every machine × every level, in a fixed order.
func cells(progs []*program) []cell {
	var cs []cell
	for _, p := range progs {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				cs = append(cs, cell{p, m, lv})
			}
		}
	}
	return cs
}

// passes runs whole passes over n operations, one at a time, until the
// next pass would end after the run's length, and at least once. op(pass,
// i) performs operation i of a pass.
func passes(seconds float64, n int, op func(pass, i int)) {
	start := time.Now()
	for pass := 1; ; pass++ {
		for i := 0; i < n; i++ {
			op(pass-1, i)
		}
		if wall := time.Since(start); (wall + wall/time.Duration(pass)).Seconds() > seconds {
			return
		}
	}
}

// perPass returns the median over passes of work per second, the
// throughput of a run of whole passes: the first pass, which warms the
// heap up, does not decide it.
func perPass(work float64, times perPassTimes) float64 {
	var rates []float64
	for _, d := range times {
		rates = append(rates, work/d.Seconds())
	}
	return median(rates)
}

// median is the median time of a pass, the untraced time a traced pass
// compares with.
func (p perPassTimes) median() time.Duration {
	var xs []float64
	for _, d := range p {
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs))
}

func sum(ds perPassTimes) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// compiled is one compile-table3 operation's output.
type compiled struct {
	listing   [sha256.Size]byte
	codeBytes int64
}

// compileCell is the mcc path for one cell: compile, optimize with the
// mcc defaults, lay out and emit assembly. With l set each layer call is
// timed and the pipeline's spans collected.
func compileCell(c cell, l *layers) (*cfg.Program, compiled, error) {
	var prog *cfg.Program
	var err error
	l.timed("mcc", func() { prog, err = mcc.Compile(c.p.Source) })
	if err != nil {
		return nil, compiled{}, err
	}
	l.count("mcc.rtls", inputRTLs(prog))
	optimize(l, prog, pipeline.Config{Machine: c.m, Level: c.lv, Jobs: 1})
	var layout *vm.Layout
	l.timed("encode", func() { layout = vm.NewLayout(prog, c.m) })
	var text string
	l.timed("asm", func() { text, err = asm.EmitString(prog, c.m) })
	return prog, compiled{sha256.Sum256([]byte(text)), layout.CodeBytes}, err
}

// optimize runs pipeline.Optimize. With l set it runs traced: a collector
// takes the pipeline's spans, and certificates are checked by tv.Validate
// in a hook that stands in for conf.TV and is timed.
func optimize(l *layers, prog *cfg.Program, conf pipeline.Config) pipeline.Stats {
	if l == nil {
		return pipeline.Optimize(prog, conf)
	}
	col := &collector{}
	conf.Tracer, conf.TV = col, false
	conf.Replication.OnCertificate = col.certHook
	start := time.Now()
	st := pipeline.Optimize(prog, conf)
	l.account(col, time.Since(start))
	countReplication(l, st.Replication)
	return st
}

func countReplication(l *layers, r replicate.Result) {
	l.count("replicate.replications", int64(r.Replications))
	l.count("replicate.rollbacks", int64(r.Rollbacks))
	l.count("replicate.rtls_copied", int64(r.RTLsCopied))
	l.count("replicate.branches_folded", int64(r.BranchesFolded))
}

// runCompileTable3 is the compile-table3 workload: the suite × 12 cells,
// compile only, closed loop with one caller. Operation: one cell.
// Throughput unit: input RTLs.
func runCompileTable3(o options) (*report, error) {
	r := newReport()
	progs, err := timedSetup(r, func() ([]*program, error) { return loadTable3(false) })
	if err != nil {
		return nil, err
	}
	cs := cells(progs)
	var suiteRTLs int64
	for _, c := range cs {
		suiteRTLs += c.p.rtls
	}

	// The untraced passes. Verification and listing comparison happen
	// outside the timed part of each operation.
	first := make([]compiled, len(cs))
	var lat []float64
	var cpu, wall perPassTimes // the time spent compiling, by pass
	check := func(c cell, i, pass int, prog *cfg.Program, out compiled, err error) {
		r.attempted++
		switch {
		case err != nil:
			r.note("FAILED %s: %v", c, err)
			r.failed++
		case verify.Error(verify.Program(prog, verify.Options{DelaySlots: c.m.DelaySlots, PostRegalloc: true})) != nil:
			r.note("FAILED %s: post-pipeline verification", c)
			r.failed++
		case pass == 0:
			first[i] = out
		case out != first[i]:
			r.note("FAILED %s: listing or code size differs from the first pass", c)
			r.failed++
		}
	}
	passes(o.seconds, len(cs), func(pass, i int) {
		var prog *cfg.Program
		var out compiled
		var err error
		c, w := clock(func() { prog, out, err = compileCell(cs[i], nil) })
		lat = append(lat, ms(c))
		cpu.add(pass, c)
		wall.add(pass, w)
		check(cs[i], i, pass, prog, out, err)
	})
	var codeBytes int64
	for _, c := range first {
		codeBytes += c.codeBytes
	}
	r.counts["code_bytes"] = codeBytes
	throughput := perPass(float64(suiteRTLs), cpu)
	r.note("compile-table3: %d cells x %d passes, %.2f s compiling (%.2f s CPU)", len(cs), len(cpu), sum(wall).Seconds(), sum(cpu).Seconds())
	r.note("compile_rtls_per_s: %.0f input RTLs per wall second, %.0f per CPU second (throughput; medians over passes)",
		perPass(float64(suiteRTLs), wall), throughput)
	r.note("code_bytes: %d bytes encoded over the suite x 12 cells", codeBytes)

	if !o.trace {
		r.e2e.set("throughput", "1/s", throughput)
		opTimes(r, "cell compile CPU time", lat)
		peakRSS(r)
		return r, nil
	}

	// The traced pass: one more pass with every layer call timed.
	l := newLayers(o.dropLayer)
	var traced stopwatch
	for i, c := range cs {
		traced.start()
		prog, out, err := compileCell(c, l)
		traced.stop()
		// Verification is outside the untraced operation, so it is timed
		// apart from the layers.
		if err == nil {
			start := time.Now()
			err = verify.Error(verify.Program(prog, verify.Options{DelaySlots: c.m.DelaySlots, PostRegalloc: true}))
			l.besides("verify", time.Since(start))
		}
		r.attempted++
		if err != nil || out != first[i] {
			r.note("FAILED %s (traced): %v", c, err)
			r.failed++
		}
	}
	layerSheet(r, l, traced, cpu.median())
	outputMetrics(r, codeBytes, nil)
	return r, nil
}

// outputMetrics reports the Tables 4–6 counts as per-layer metrics (they
// are 0 where a workload runs no program), and zeroes the service metrics,
// which only mccd-mixed sets.
func outputMetrics(r *report, codeBytes int64, d *dynamic) {
	if d == nil {
		d = &dynamic{}
	}
	r.layer.set("code_bytes", "bytes", float64(codeBytes))
	r.layer.set("dyn_insts", "count", float64(d.insts))
	r.layer.set("dyn_uncond_jumps", "count", float64(d.uncond))
	r.layer.set("dyn_cond_branches", "count", float64(d.cond))
	r.layer.set("fetch_cost", "units", float64(d.fetchCost))
	r.layer.set("service.overhead_ms", "ms", 0)
	r.layer.set("service.queue_wait_ms", "ms", 0)
	r.layer.set("service.cache_hit_ratio", "ratio", 0)
	r.layer.set("service.busy_ratio", "ratio", 0)
	r.layer.set("service.hit_ms_p50", "ms", 0)
	r.layer.set("service.miss_ms_tail", "ms", 0)
}

// dynamic sums the Tables 4–6 counts over a set of runs.
type dynamic struct {
	insts, uncond, cond, fetchCost int64
}

func (d *dynamic) add(c vm.Counts, fetchCost int64) {
	d.insts += c.Exec
	d.uncond += c.UncondJumps
	d.cond += c.CondBranches
	d.fetchCost += fetchCost
}

// fetchCost sums the Table-6 fetch cost over a cache bank's caches.
func fetchCost(caches []cache.Stats) int64 {
	var n int64
	for _, s := range caches {
		n += s.Cost
	}
	return n
}

// measured is one measure-table3 operation's deterministic output.
type measured struct {
	counts    vm.Counts
	fetchCost int64
	codeBytes int64
}

// runMeasureTable3 is the measure-table3 workload: the same 168 cells
// through ease.Measure with the paper's cache bank and Validate on, one
// caller. Operation: one cell. Throughput unit: simulated instructions.
func runMeasureTable3(o options) (*report, error) {
	r := newReport()
	progs, err := timedSetup(r, func() ([]*program, error) { return loadTable3(true) })
	if err != nil {
		return nil, err
	}
	if o.plant != nil {
		o.plant(progs)
	}
	cs := cells(progs)

	first := make([]measured, len(cs))
	var lat []float64
	var cpu, wall perPassTimes // the time spent measuring, by pass
	passes(o.seconds, len(cs), func(pass, i int) {
		c := cs[i]
		var run *ease.Run
		var err error
		t, w := clock(func() {
			run, err = ease.Measure(ease.Request{
				Name: c.p.Name, Source: c.p.Source, Input: []byte(c.p.Input),
				Machine: c.m, Level: c.lv, SimulateCaches: true, Validate: true, Jobs: 1,
			})
		})
		lat = append(lat, ms(t))
		cpu.add(pass, t)
		wall.add(pass, w)
		r.attempted++
		if err != nil {
			r.note("FAILED %s: %v", c, err)
			r.failed++
			return
		}
		out := measured{run.Dynamic, fetchCost(run.Caches), run.CodeBytes}
		switch {
		case !c.p.ref.matches(run.Output, run.ExitCode):
			r.note("FAILED %s: output or exit code differs from the unoptimized reference", c)
			r.failed++
		case pass == 0:
			first[i] = out
		case out != first[i]:
			r.note("FAILED %s: counts differ from the first pass", c)
			r.failed++
		}
	})
	var dyn dynamic
	var codeBytes int64
	for _, m := range first {
		dyn.add(m.counts, m.fetchCost)
		codeBytes += m.codeBytes
	}
	r.counts["code_bytes"] = codeBytes
	r.counts["dyn_insts"] = dyn.insts
	r.counts["dyn_uncond_jumps"] = dyn.uncond
	r.counts["dyn_cond_branches"] = dyn.cond
	r.counts["fetch_cost"] = dyn.fetchCost
	throughput := perPass(float64(dyn.insts), cpu)
	r.note("measure-table3: %d cells x %d passes, %.2f s measuring (%.2f s CPU)", len(cs), len(cpu), sum(wall).Seconds(), sum(cpu).Seconds())
	r.note("measure_insts_per_s: %.0f simulated instructions per wall second, %.0f per CPU second (throughput; medians over passes)",
		perPass(float64(dyn.insts), wall), throughput)
	r.note("code_bytes %d, dyn_insts %d, dyn_uncond_jumps %d, dyn_cond_branches %d, fetch_cost %d",
		codeBytes, dyn.insts, dyn.uncond, dyn.cond, dyn.fetchCost)

	if !o.trace {
		r.e2e.set("throughput", "1/s", throughput)
		opTimes(r, "cell measure CPU time", lat)
		peakRSS(r)
		return r, nil
	}

	// The traced pass: the layers of ease.Measure called one by one. The
	// VM runs three times per cell: plain (vm.ms), with a no-op fetch hook
	// (vm.fetch_hook_ms is the difference), and recording the fetch
	// stream, which is then replayed through the paper's cache bank
	// (cache.ms).
	l := newLayers(o.dropLayer)
	var traced stopwatch
	var tdyn dynamic
	var tcode int64
	var fs fetchStream
	for _, c := range cs {
		fs.addr, fs.size = fs.addr[:0], fs.size[:0]
		run, codeBytes, err := measureCellTraced(c, l, &fs, &traced)
		r.attempted++
		if err == nil {
			tdyn.add(run.Counts, fetchCost(fs.caches))
			tcode += codeBytes
		}
		if err != nil || !c.p.ref.matches(run.Output, run.ExitCode) {
			r.note("FAILED %s (traced): %v", c, err)
			r.failed++
		}
	}
	if tdyn != dyn || tcode != codeBytes {
		r.note("FAILED: traced pass counts differ from the untraced pass")
		r.failed++
	}
	layerSheet(r, l, traced, cpu.median())
	outputMetrics(r, codeBytes, &dyn)
	return r, nil
}

// fetchStream records a program's instruction fetches compactly and keeps
// the cache bank statistics of their replay.
type fetchStream struct {
	addr   []uint32
	size   []uint8
	caches []cache.Stats
}

func (s *fetchStream) record(addr, size int64) {
	s.addr = append(s.addr, uint32(addr))
	s.size = append(s.size, uint8(size))
}

// measureCellTraced performs one measure-table3 cell layer by layer, as
// ease.Measure does, timing each layer call. The traced stopwatch runs
// over the cell's layer calls and the benchmark's work between them; the
// two VM runs that only feed vm.fetch_hook_ms and the recorded fetch
// stream are left out of it.
func measureCellTraced(c cell, l *layers, fs *fetchStream, traced *stopwatch) (*vm.Result, int64, error) {
	traced.start()
	var prog *cfg.Program
	var err error
	l.timed("mcc", func() { prog, err = mcc.Compile(c.p.Source) })
	if err != nil {
		return nil, 0, err
	}
	l.count("mcc.rtls", inputRTLs(prog))
	optimize(l, prog, pipeline.Config{Machine: c.m, Level: c.lv, Jobs: 1})
	l.timed("verify", func() {
		err = verify.Error(verify.Program(prog, verify.Options{DelaySlots: c.m.DelaySlots, PostRegalloc: true}))
	})
	if err != nil {
		return nil, 0, err
	}
	var layout *vm.Layout
	l.timed("encode", func() { layout = vm.NewLayout(prog, c.m) })
	in := []byte(c.p.Input)
	var res *vm.Result
	vmStart := time.Now()
	res, err = vm.Run(prog, vm.Config{Input: in})
	plain := time.Since(vmStart)
	l.top("vm", plain)
	if err != nil {
		return nil, 0, err
	}
	l.count("vm.insts", res.Counts.Exec)
	traced.stop()

	hookStart := time.Now()
	if _, err := vm.Run(prog, vm.Config{Input: in, Layout: layout, OnFetch: func(addr, size int64) {}}); err != nil {
		return nil, 0, err
	}
	l.besides("vm.fetch_hook", time.Since(hookStart)-plain)
	if _, err := vm.Run(prog, vm.Config{Input: in, Layout: layout, OnFetch: fs.record}); err != nil {
		return nil, 0, err
	}

	traced.start()
	bank := cache.NewPaperBank()
	l.timed("cache", func() {
		for i, a := range fs.addr {
			bank.Fetch(int64(a), int64(fs.size[i]))
		}
	})
	l.count("cache.fetches", int64(len(fs.addr)))
	fs.caches = bank.Stats()
	traced.stop()
	return res, layout.CodeBytes, nil
}
