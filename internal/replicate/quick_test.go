package replicate

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
	"repro/internal/vm"
)

// runFunc executes a standalone function as a program's main and returns
// the function's return value.
func runFunc(f *cfg.Func) (int64, error) {
	prog := &cfg.Program{Funcs: []*cfg.Func{f}}
	res, err := vm.Run(prog, vm.Config{MaxSteps: 1_000_000})
	if err != nil {
		return 0, err
	}
	return res.ExitCode, nil
}

// randomDAGFunc builds a random but well-formed acyclic flow graph over a
// handful of virtual registers and frame slots. Acyclicity guarantees
// termination, so the function's return value is a complete semantic
// fingerprint. (Loops are covered by the mini-C fuzz tests; this drills
// the pure CFG surgery on shapes the front end would never emit.)
func randomDAGFunc(r *rand.Rand) *cfg.Func {
	f := cfg.NewFunc("main", 0)
	f.NLocals = 8
	n := 3 + r.Intn(10)
	blocks := make([]*cfg.Block, n)
	for i := 0; i < n; i++ {
		blocks[i] = f.NewBlock()
	}
	reg := func() rtl.Operand { return rtl.R(rtl.VRegBase + rtl.Reg(r.Intn(5))) }
	operand := func() rtl.Operand {
		switch r.Intn(4) {
		case 0:
			return rtl.Imm(int64(r.Intn(64) - 32))
		case 1:
			return rtl.Local(int64(r.Intn(8)))
		default:
			return reg()
		}
	}
	for i, b := range blocks {
		// Straight-line body.
		for k := 0; k < 1+r.Intn(4); k++ {
			switch r.Intn(4) {
			case 0:
				b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: reg(), Src: operand()})
			case 1:
				b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.Local(int64(r.Intn(8))), Src: reg()})
			default:
				ops := []rtl.BinOp{rtl.Add, rtl.Sub, rtl.Mul, rtl.And, rtl.Or, rtl.Xor}
				b.Insts = append(b.Insts, rtl.Inst{
					Kind: rtl.Bin, BOp: ops[r.Intn(len(ops))],
					Dst: reg(), Src: reg(), Src2: operand(),
				})
			}
		}
		// Terminator: forward-only edges keep the graph acyclic.
		isLast := i == n-1
		choice := r.Intn(4)
		if isLast {
			choice = 3
		}
		switch choice {
		case 0: // fall through
		case 1:
			tgt := blocks[i+1+r.Intn(n-i-1)]
			b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Jmp, Target: tgt.Label})
		case 2:
			tgt := blocks[i+1+r.Intn(n-i-1)]
			rels := []rtl.Rel{rtl.Eq, rtl.Ne, rtl.Lt, rtl.Le, rtl.Gt, rtl.Ge}
			b.Insts = append(b.Insts,
				rtl.Inst{Kind: rtl.Cmp, Src: reg(), Src2: operand()},
				rtl.Inst{Kind: rtl.Br, BrRel: rels[r.Intn(len(rels))], Target: tgt.Label})
		default:
			b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Ret, Src: reg()})
		}
	}
	return f
}

// fingerprint executes the function and returns its result. The graphs are
// acyclic so execution always terminates quickly.
func fingerprint(t *testing.T, f *cfg.Func) int64 {
	t.Helper()
	res, err := runFunc(f)
	if err != nil {
		t.Fatalf("execution failed: %v\n%s", err, f)
	}
	return res
}

// TestQuickJUMPSPreservesSemantics: on hundreds of random flow graphs, the
// JUMPS transformation must preserve the computed value, keep the graph
// reducible, and leave no dangling labels.
func TestQuickJUMPSPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		f := randomDAGFunc(r)
		if !cfg.IsReducible(f) {
			t.Fatalf("trial %d: DAG claimed irreducible:\n%s", trial, f)
		}
		before := fingerprint(t, f)
		opts := Options{}
		switch trial % 4 {
		case 1:
			opts.Heuristic = HeurReturns
		case 2:
			opts.Heuristic = HeurLoops
		case 3:
			opts.MaxSeqRTLs = 3
		}
		JUMPS(f, opts)
		runnableSanity(t, f)
		after := fingerprint(t, f)
		if before != after {
			t.Fatalf("trial %d: value changed %d -> %d\n%s", trial, before, after, f)
		}
	}
}

// TestQuickLOOPSPreservesSemantics does the same for the LOOPS baseline.
func TestQuickLOOPSPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		f := randomDAGFunc(r)
		before := fingerprint(t, f)
		LOOPS(f, Options{})
		runnableSanity(t, f)
		if after := fingerprint(t, f); after != before {
			t.Fatalf("trial %d: value changed %d -> %d\n%s", trial, before, after, f)
		}
	}
}

// TestQuickJumpsReduced: on random DAGs, JUMPS leaves no direct jumps at
// all — every jump in a DAG has a favoring-returns replacement.
func TestQuickJumpsReduced(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		f := randomDAGFunc(r)
		JUMPS(f, Options{})
		cfg.RemoveUnreachable(f)
		if n := f.NumJumps(); n != 0 {
			t.Fatalf("trial %d: %d jumps left:\n%s", trial, n, f)
		}
	}
}
