package main

import (
	"bytes"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/verify"
	"repro/internal/vm"
)

// oracleSeeds is the generator seed range the oracle workload checks: the
// first seeds of the CI fuzz smoke's corpus. It is fixed, not drawn from
// the benchmark seed, because one seed's check costs anywhere from about
// 2 s to over 40 s, so a run over a seed-dependent range could not be
// steady.
var oracleSeeds = []int64{1, 2, 3}

// oracleInput is the fuzz smoke's program input (internal/difftest's
// FuzzGenerated); the workload uses its step budget too.
var oracleInput = []byte("fuzz")

const (
	oracleMaxSteps = 10_000_000
	// oracleMaxFuncRTLs is difftest.Options' growth cap for generated
	// programs, which the traced replay must use too.
	oracleMaxFuncRTLs = 12000
)

// runOracle is the oracle-generated workload: difftest.Check over the
// fixed seed range on the full 12-cell grid with VerifyEach and TV on, one
// caller (difftest.Check already optimizes a program's functions in
// parallel). Operation: one seed. Throughput unit: seeds. A seed that
// violates an invariant or is skipped counts as failed.
func runOracle(o options) (*report, error) {
	return runOracleSeeds(o, oracleSeeds)
}

func runOracleSeeds(o options, seeds []int64) (*report, error) {
	r := newReport()
	srcs, err := timedSetup(r, func() ([]string, error) {
		var srcs []string
		for _, s := range seeds {
			src := difftest.Generate(s)
			if _, err := mcc.Compile(src); err != nil {
				return nil, fmt.Errorf("seed %d: %w", s, err)
			}
			srcs = append(srcs, src)
		}
		return srcs, nil
	})
	if err != nil {
		return nil, err
	}

	if o.trace {
		return oracleTraced(r, seeds, srcs, o.dropLayer)
	}
	var lat []float64
	var cpu, wall perPassTimes
	passes(o.seconds, len(seeds), func(pass, i int) {
		var v *difftest.Verdict
		c, w := clock(func() {
			v = difftest.Check(srcs[i], difftest.Options{
				Seed: seeds[i], Input: oracleInput, MaxSteps: oracleMaxSteps,
				VerifyEach: true, TV: true,
			})
		})
		lat = append(lat, ms(c))
		cpu.add(pass, c)
		wall.add(pass, w)
		r.attempted++
		if v.Failed() || v.Skipped {
			r.note("FAILED seed %d: skipped=%v %s violations: %v", seeds[i], v.Skipped, v.SkipReason, v.Violations)
			r.failed++
		}
	})
	throughput := perPass(float64(len(seeds)), cpu)
	r.note("oracle-generated: seeds %v x %d passes, %.2f s checking (%.2f s CPU)", seeds, len(cpu), sum(wall).Seconds(), sum(cpu).Seconds())
	r.note("oracle_seeds_per_s: %.4f seeds per wall second, %.4f per CPU second (throughput)", perPass(float64(len(seeds)), wall), throughput)
	r.e2e.set("throughput", "1/s", throughput)
	opTimes(r, "seed check CPU time", lat)
	peakRSS(r)
	return r, nil
}

// oracleTraced is the traced run of oracle-generated. It replays what
// difftest.Check does, layer by layer, once untraced and once traced, so
// that the two differ only in the tracing.
func oracleTraced(r *report, seeds []int64, srcs []string, drop string) (*report, error) {
	replay := func(l *layers) stopwatch {
		var total stopwatch
		for i, src := range srcs {
			total.start()
			err := oracleReplay(src, l)
			total.stop()
			r.attempted++
			if err != nil {
				r.note("FAILED seed %d (replay): %v", seeds[i], err)
				r.failed++
			}
		}
		return total
	}
	untraced := replay(nil)
	l := newLayers(drop)
	traced := replay(l)
	layerSheet(r, l, traced, untraced.cpu)
	outputMetrics(r, 0, nil)
	return r, nil
}

// oracleReplay checks one generated program on the 12-cell grid as
// difftest.Check does, optimizing functions one at a time; with l set
// every layer call is timed. It checks the verifier, the translation
// validator, and output and exit code against the unoptimized reference;
// the oracle's dynamic-count invariants are left to difftest.Check.
func oracleReplay(src string, l *layers) error {
	compile := func() (*cfg.Program, error) {
		var prog *cfg.Program
		var err error
		l.timed("mcc", func() { prog, err = mcc.Compile(src) })
		if err == nil {
			l.count("mcc.rtls", inputRTLs(prog))
		}
		return prog, err
	}
	run := func(prog *cfg.Program) (*vm.Result, error) {
		var res *vm.Result
		var err error
		l.timed("vm", func() { res, err = vm.Run(prog, vm.Config{Input: oracleInput, MaxSteps: oracleMaxSteps}) })
		if err == nil {
			l.count("vm.insts", res.Counts.Exec)
		}
		return res, err
	}
	ref, err := compile()
	if err != nil {
		return err
	}
	want, err := run(ref)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for _, m := range machine.All() {
		for _, lv := range pipeline.AllLevels() {
			prog, err := compile()
			if err != nil {
				return err
			}
			st := optimize(l, prog, pipeline.Config{
				Machine: m, Level: lv, VerifyEach: true, TV: true, Jobs: 1,
				Replication: replicate.Options{MaxFuncRTLs: oracleMaxFuncRTLs},
			})
			vs := st.Verify
			if len(vs) == 0 {
				l.timed("verify", func() {
					vs = verify.Program(prog, verify.Options{DelaySlots: m.DelaySlots, PostRegalloc: true})
				})
			}
			if err := verify.Error(vs); err != nil {
				return fmt.Errorf("%s/%s: %w", m.Name, lv, err)
			}
			got, err := run(prog)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", m.Name, lv, err)
			}
			if !bytes.Equal(got.Output, want.Output) || got.ExitCode != want.ExitCode {
				return fmt.Errorf("%s/%s: output or exit code differs from the reference", m.Name, lv)
			}
		}
	}
	return nil
}
