package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/replicate"
)

// fakeBaseline builds a structurally valid baseline without measuring.
func fakeBaseline(ns int64) *Baseline {
	bl := &Baseline{Schema: BaselineSchema, Machine: "68020", StressSpeedup: 3.5}
	for _, lv := range []string{"SIMPLE", "LOOPS", "JUMPS", "DUPS"} {
		bl.Suite = append(bl.Suite, SuiteResult{
			Level: lv, NsPerOp: ns, AllocsPerOp: 1, BytesPerOp: 1,
			RTLs: 1000, RTLsPerSec: float64(1000) * 1e9 / float64(ns),
		})
	}
	for _, eng := range []replicate.PathEngine{replicate.EngineOracle, replicate.EngineMatrix} {
		bl.Stress = append(bl.Stress, StressResult{
			Engine: eng.String(), States: 10, RTLs: 500,
			NsPerOp: ns, RTLsPerSec: float64(500) * 1e9 / float64(ns),
		})
	}
	bl.Encoded = testEncoded()
	bl.Floors = DeriveFloors(bl.Suite)
	return bl
}

// gateFixture returns a committed baseline and a fresh measurement that
// exactly matches it.
func gateFixture() (*Baseline, []SuiteResult) {
	bl := fakeBaseline(100)
	fresh := append([]SuiteResult(nil), bl.Suite...)
	return bl, fresh
}

func TestGatePasses(t *testing.T) {
	bl, fresh := gateFixture()
	rows, err := bl.Gate(fresh, 0)
	if err != nil {
		t.Fatalf("identical measurements failed the gate: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Pass || !r.ThroughputOK || !r.AllocsOK {
			t.Errorf("%s: unexpected failure: %+v", r.Level, r)
		}
	}
}

func TestGateCatchesThroughputRegression(t *testing.T) {
	bl, fresh := gateFixture()
	// Drop LOOPS throughput below the 40% floor.
	fresh[1].RTLsPerSec = bl.Suite[1].RTLsPerSec * FloorThroughputFactor * 0.5
	rows, err := bl.Gate(fresh, 0)
	if err == nil {
		t.Fatal("halved throughput passed the gate")
	}
	if !strings.Contains(err.Error(), "LOOPS") {
		t.Errorf("failure does not name the level: %v", err)
	}
	if rows[1].Pass || !rows[1].AllocsOK || rows[1].ThroughputOK {
		t.Errorf("wrong verdict split: %+v", rows[1])
	}
	// The other levels still pass.
	if !rows[0].Pass || !rows[2].Pass || !rows[3].Pass {
		t.Errorf("unrelated levels failed: %+v %+v %+v", rows[0], rows[2], rows[3])
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	bl, fresh := gateFixture()
	fresh[2].AllocsPerOp = bl.Floors[2].MaxAllocsPerOp * 2
	if _, err := bl.Gate(fresh, 0); err == nil {
		t.Fatal("doubled allocations passed the gate")
	}
}

func TestGateToleranceBand(t *testing.T) {
	bl, fresh := gateFixture()
	// 5% below the floor: fails at tol 0, passes at tol 0.10.
	fresh[0].RTLsPerSec = bl.Floors[0].MinRTLsPerSec * 0.95
	if _, err := bl.Gate(fresh, 0); err == nil {
		t.Fatal("sub-floor throughput passed without tolerance")
	}
	if _, err := bl.Gate(fresh, 0.10); err != nil {
		t.Fatalf("10%% tolerance did not absorb a 5%% dip: %v", err)
	}
	if _, err := bl.Gate(fresh, -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestGateMissingLevel(t *testing.T) {
	bl, fresh := gateFixture()
	if _, err := bl.Gate(fresh[:3], 0); err == nil {
		t.Fatal("gate accepted measurements missing a level")
	}
}

func TestWriteGateSummary(t *testing.T) {
	bl, fresh := gateFixture()
	fresh[1].RTLsPerSec = 1 // force one failing row
	rows, _ := bl.Gate(fresh, 0.05)
	var sb strings.Builder
	if err := WriteGateSummary(&sb, rows, 0.05); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### Perf gate", "| Level |", "| SIMPLE |", "| LOOPS |", "| JUMPS |", "| DUPS |", "✅", "❌", "5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary misses %q:\n%s", want, out)
		}
	}
}

// TestLoadBaselineRequiresEncoded pins the validation error for a baseline
// file whose encoded section was dropped: loading must fail and name the
// missing cell rather than silently accepting a partial baseline.
func TestLoadBaselineRequiresEncoded(t *testing.T) {
	bl := fakeBaseline(100)
	bl.Encoded = nil
	path := filepath.Join(t.TempDir(), "noenc.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBaseline(path)
	if err == nil {
		t.Fatal("baseline without an encoded section accepted")
	}
	if !strings.Contains(err.Error(), "encoded section is missing cell") {
		t.Errorf("unexpected error: %v", err)
	}
}
