// Command ease measures one program the way the paper's EASE environment
// did: it compiles a Table-3 program (by name) or a mini-C file, runs it,
// and reports static counts, dynamic counts and (optionally) the cache bank
// of Table 6.
//
//	ease -prog wc -machine sparc -level jumps -caches
//	ease -file myprog.c -in input.txt
//	ease -prog wc -trace t.jsonl -explain    # telemetry + narrative
//	ease -prog wc -fetchtrace fetches.txt    # fetch stream for cmd/cachesim
//
// The whole Table-3 grid is measured by cmd/tables.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	progName := flag.String("prog", "", "Table-3 program name (see `tables -list`)")
	file := flag.String("file", "", "mini-C source file (alternative to -prog)")
	inFile := flag.String("in", "", "input file (default: the program's canned input for -prog)")
	resolveConfig := pipeline.BindFlags(flag.CommandLine)
	caches := flag.Bool("caches", false, "simulate the Table-6 instruction caches")
	showOutput := flag.Bool("output", false, "print the program's output")
	fetchTraceFile := flag.String("fetchtrace", "", "write the instruction-fetch trace (one `addr size` pair per line) to this file, for cmd/cachesim")
	traceFile := flag.String("trace", "", "write a JSONL telemetry trace (phase/pass spans, replication decisions, block profile) to this file")
	explain := flag.Bool("explain", false, "print a human-readable pass/replication narrative to stderr")
	profile := flag.Bool("profile", false, "print the hottest blocks to stderr")
	quiet := flag.Bool("q", false, "suppress the per-cell progress line on stderr")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "per-function optimizer workers (output is identical for every value)")
	flag.Parse()
	conf, err := resolveConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ease:", err)
		os.Exit(2)
	}

	req := ease.Request{
		Machine: conf.Machine, Level: conf.Level,
		SimulateCaches: *caches, Profile: *profile,
		VerifyEach: conf.VerifyEach, TV: conf.TV, Jobs: *jobs,
	}
	switch {
	case *progName != "":
		p := bench.ProgramByName(*progName)
		if p == nil {
			fmt.Fprintf(os.Stderr, "ease: unknown program %q\n", *progName)
			os.Exit(2)
		}
		req.Name, req.Source, req.Input = p.Name, p.Source, []byte(p.Input)
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		req.Name, req.Source = *file, string(src)
	default:
		fmt.Fprintln(os.Stderr, "ease: need -prog or -file")
		os.Exit(2)
	}
	if *inFile != "" {
		in, err := os.ReadFile(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		req.Input = in
	}

	if *fetchTraceFile != "" {
		f, err := os.Create(*fetchTraceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		req.OnFetch = func(addr, size int64) {
			fmt.Fprintf(w, "%d %d\n", addr, size)
		}
		defer fmt.Fprintf(os.Stderr, "fetch trace written to %s\n", *fetchTraceFile)
	}

	// Telemetry sinks: a JSONL file for -trace, an in-memory collector for
	// -explain; nil when neither is requested.
	var collector *obs.Collector
	if *explain {
		collector = &obs.Collector{}
	}
	var jsonl *obs.JSONLWriter
	var traceOut *os.File
	if *traceFile != "" {
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		jsonl = obs.NewJSONLWriter(traceOut)
	}
	if collector != nil && jsonl != nil {
		req.Tracer = obs.Multi(collector, jsonl)
	} else if collector != nil {
		req.Tracer = collector
	} else if jsonl != nil {
		req.Tracer = jsonl
	}

	start := time.Now()
	run, err := ease.Measure(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(run.Static.Verify) > 0 {
		for _, v := range run.Static.Verify {
			fmt.Fprintln(os.Stderr, "ease:", v.String())
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ease: measured %s × %s × %s in %s\n",
			req.Name, req.Machine.Name, req.Level, time.Since(start).Round(time.Millisecond))
	}
	if jsonl != nil {
		if err := jsonl.Err(); err == nil {
			err = traceOut.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceFile)
	}
	if *showOutput {
		os.Stdout.Write(run.Output)
		fmt.Println()
	}
	fmt.Printf("%s on %s at %s\n", req.Name, req.Machine.Name, req.Level)
	fmt.Printf("  static:  %d instructions (%d bytes), %d jumps (%d indirect), %d branches, %d no-ops\n",
		run.Static.StaticInsts, run.CodeBytes, run.Static.StaticJumps,
		run.Static.StaticIndirect, run.Static.StaticBranches, run.Static.StaticNops)
	fmt.Printf("  replication: %d applied, %d jumps-to-next deleted, %d rollbacks, %d RTLs copied\n",
		run.Static.Replication.Replications, run.Static.Replication.JumpsDeleted,
		run.Static.Replication.Rollbacks, run.Static.Replication.RTLsCopied)
	fmt.Printf("  dynamic: %d executed, %d uncond jumps (%.2f%%), %d branches (%d taken), %d no-ops\n",
		run.Dynamic.Exec, run.Dynamic.UncondJumps, 100*run.DynamicJumpFraction(),
		run.Dynamic.CondBranches, run.Dynamic.TakenBranches, run.Dynamic.Nops)
	fmt.Printf("  instructions between branches: %.2f\n", run.InstsBetweenBranches())
	if run.Caches != nil {
		fmt.Printf("  caches (direct-mapped, %d-byte lines, miss=%dx hit):\n",
			cache.DefaultLineBytes, cache.MissCost)
		for _, cs := range run.Caches {
			ctx := "ctx on "
			if !cs.CtxSwitches {
				ctx = "ctx off"
			}
			fmt.Printf("    %4dKb %s  miss ratio %6.3f%%  fetch cost %d\n",
				cs.SizeBytes/1024, ctx, 100*cs.MissRatio(), cs.Cost)
		}
	}
	if *profile && run.Profile != nil {
		fmt.Fprintln(os.Stderr, "hot blocks (by executed instructions):")
		for _, h := range run.Profile.Hot(10) {
			fmt.Fprintf(os.Stderr, "  %-12s %-6s %6.2f%%  (%d entries x %d insts = %d)\n",
				h.Func, h.Label, 100*h.Frac, h.Count, h.Insts, h.ExecInsts)
		}
	}
	if collector != nil {
		obs.Explain(os.Stderr, collector.Events())
	}
}
