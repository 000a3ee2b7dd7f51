package pipeline_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/rtl"
	"repro/internal/vm"
)

// TestPipelineOrderFinalShape checks the Figure-3 contract on the final
// code: SPARC code has a delay slot after every CTI, no machine-illegal
// operand shapes, no virtual registers, and no unconditional jumps to the
// next block.
func TestPipelineOrderFinalShape(t *testing.T) {
	src := `
int a[20];
int f(int x) { return x > 3 ? x - 1 : x + 1; }
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 20; i++)
		a[i] = f(i);
	for (i = 0; i < 20; i++)
		s += a[i];
	printint(s);
	return 0;
}`
	for _, m := range machine.All() {
		for _, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
			prog, err := mcc.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
			for _, f := range prog.Funcs {
				for _, b := range f.Blocks {
					for ii := range b.Insts {
						in := &b.Insts[ii]
						if !m.LegalInst(in) {
							t.Errorf("%s/%s %s: illegal final instruction %v", m.Name, lv, f.Name, in)
						}
						for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
							if o.Kind == rtl.OReg && o.Reg.IsVirtual() ||
								o.Kind == rtl.OMem && (o.Reg.IsVirtual() || o.Index != rtl.RegNone && o.Index.IsVirtual()) {
								t.Errorf("%s/%s %s: virtual register in final code: %v", m.Name, lv, f.Name, in)
							}
						}
						if m.DelaySlots {
							switch in.Kind {
							case rtl.Br, rtl.Jmp, rtl.IJmp, rtl.Ret:
								if ii+1 >= len(b.Insts) {
									t.Errorf("%s/%s %s: CTI without delay slot: %v", m.Name, lv, f.Name, in)
								}
							}
						}
					}
					if !m.DelaySlots {
						// Without slots, a Jmp to the positionally next
						// block should have been removed.
						if tm := b.Term(); tm != nil && tm.Kind == rtl.Jmp &&
							b.Index+1 < len(f.Blocks) && f.Blocks[b.Index+1].Label == tm.Target {
							t.Errorf("%s/%s %s: jump to next block survived", m.Name, lv, f.Name)
						}
					}
				}
			}
		}
	}
}

// TestStatsReported checks the pipeline reports coherent statistics.
func TestStatsReported(t *testing.T) {
	prog, err := mcc.Compile(`int main() { int i; for (i = 0; i < 5; i++) putchar('x'); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	st := pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps})
	if st.StaticInsts != prog.NumRTLs() {
		t.Errorf("StaticInsts %d != NumRTLs %d", st.StaticInsts, prog.NumRTLs())
	}
	if st.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	if st.SlotsFilled+st.SlotsNops == 0 {
		t.Error("SPARC must have placed delay slots")
	}
	if st.StaticNops != st.SlotsNops {
		t.Errorf("static nops %d != slot nops %d", st.StaticNops, st.SlotsNops)
	}
	res, err := vm.Run(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "xxxxx") {
		t.Errorf("output %q", res.Output)
	}
}

// TestParseLevel covers the level parser used by the CLIs.
func TestParseLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want pipeline.Level
	}{
		{"simple", pipeline.Simple}, {"SIMPLE", pipeline.Simple}, {"Simple", pipeline.Simple},
		{"loops", pipeline.Loops}, {"LOOPS", pipeline.Loops}, {"LoOpS", pipeline.Loops},
		{"jumps", pipeline.Jumps}, {"JUMPS", pipeline.Jumps}, {"Jumps", pipeline.Jumps},
	} {
		got, err := pipeline.ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := pipeline.ParseLevel("turbo"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
	if pipeline.Simple.String() != "SIMPLE" || pipeline.Jumps.String() != "JUMPS" {
		t.Error("Level.String broken")
	}
}

// TestResolve pins the one mapping from spelled compile options to a
// Config: defaults, aliases and letter case resolve, bad names fail, and
// the fields that need no parsing pass through untouched.
func TestResolve(t *testing.T) {
	for _, c := range []struct {
		machine, level, heuristic string
		wantM                     *machine.Machine
		wantL                     pipeline.Level
		wantH                     replicate.Heuristic
	}{
		{"", "", "", machine.M68020, pipeline.Jumps, replicate.HeurShortest},
		{"68k", "LOOPS", "returns", machine.M68020, pipeline.Loops, replicate.HeurReturns},
		{"SPARC", "dups", "loops", machine.SPARC, pipeline.Dups, replicate.HeurLoops},
		{"i386", "Simple", "shortest", machine.X86, pipeline.Simple, replicate.HeurShortest},
		{"", "", "Shortest", machine.M68020, pipeline.Jumps, replicate.HeurShortest},
		{"", "", " LOOPS ", machine.M68020, pipeline.Jumps, replicate.HeurLoops},
	} {
		got, err := pipeline.Resolve(pipeline.Config{}, c.machine, c.level, c.heuristic)
		if err != nil || got.Machine != c.wantM || got.Level != c.wantL || got.Replication.Heuristic != c.wantH {
			t.Errorf("Resolve(%q, %q, %q) = %v/%v/%v, %v", c.machine, c.level, c.heuristic,
				got.Machine, got.Level, got.Replication.Heuristic, err)
		}
	}
	for _, bad := range [][3]string{{"vax", "", ""}, {"", "turbo", ""}, {"", "", "frequency"}} {
		if _, err := pipeline.Resolve(pipeline.Config{}, bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("Resolve(%q, %q, %q) succeeded, want an error", bad[0], bad[1], bad[2])
		}
	}
	in := pipeline.Config{
		Replication: replicate.Options{MaxSeqRTLs: 8, AllowIndirect: true},
		VerifyEach:  true, TV: true, Jobs: 3,
	}
	got, err := pipeline.Resolve(in, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Replication.MaxSeqRTLs != 8 || !got.Replication.AllowIndirect || !got.VerifyEach || !got.TV || got.Jobs != 3 {
		t.Errorf("Resolve dropped pass-through fields: %+v", got)
	}
}

// TestBindFlags checks the shared driver flags: their defaults resolve to
// the 68020 at JUMPS, and set flags reach the Config.
func TestBindFlags(t *testing.T) {
	for _, c := range []struct {
		args  []string
		wantM *machine.Machine
		wantL pipeline.Level
		check bool
	}{
		{nil, machine.M68020, pipeline.Jumps, false},
		{[]string{"-machine", "x86", "-level", "LOOPS", "-verify-each", "-tv"}, machine.X86, pipeline.Loops, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		resolve := pipeline.BindFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got, err := resolve()
		if err != nil || got.Machine != c.wantM || got.Level != c.wantL || got.VerifyEach != c.check || got.TV != c.check {
			t.Errorf("flags %q resolved to %v/%v verify-each=%v tv=%v, %v",
				c.args, got.Machine, got.Level, got.VerifyEach, got.TV, err)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	resolve := pipeline.BindFlags(fs)
	if err := fs.Parse([]string{"-level", "turbo"}); err != nil {
		t.Fatal(err)
	}
	if _, err := resolve(); err == nil {
		t.Error("-level turbo resolved, want an error")
	}
}
