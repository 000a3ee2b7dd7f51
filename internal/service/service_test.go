package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestDeterministicAcrossConcurrency compiles the same source on a wide
// pool and a single-worker service and checks the results agree — the
// pipeline must be a pure function of its inputs regardless of what else
// shares the process.
func TestDeterministicAcrossConcurrency(t *testing.T) {
	wide := New(Config{Workers: 4})
	narrow := New(Config{Workers: 1})
	defer wide.Close(context.Background())
	defer narrow.Close(context.Background())
	req := CompileRequest{Source: tinySrc, Machine: "sparc", Level: "jumps"}
	a, err := wide.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := narrow.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Assembly != b.Assembly || !reflect.DeepEqual(a.Static, b.Static) || a.CodeBytes != b.CodeBytes {
		t.Fatalf("results diverge across pool sizes:\n%+v\n%+v", a, b)
	}
}

// TestGracefulDrain submits a grid job and immediately closes the
// service: Close must wait for the job to finish (drain), and its result
// must remain retrievable afterwards.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	view, err := s.SubmitGrid(GridRequest{Programs: []string{"queens"}})
	if err != nil {
		t.Fatalf("SubmitGrid: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := s.Job(view.ID)
	if err != nil {
		t.Fatalf("Job after Close: %v", err)
	}
	if got.State != JobDone {
		t.Fatalf("job state after drain = %q (%d/%d, err %q), want done",
			got.State, got.Done, got.Total, got.Error)
	}
	if want := len(machine.All()) * len(pipeline.AllLevels()); got.Done != want {
		t.Fatalf("done = %d, want %d", got.Done, want)
	}
}

// TestClosedServiceRejects verifies every entry point refuses work after
// Close.
func TestClosedServiceRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Compile(context.Background(), CompileRequest{Source: tinySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compile after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Measure(context.Background(), MeasureRequest{Program: "queens"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Measure after Close = %v, want ErrClosed", err)
	}
	if _, err := s.SubmitGrid(GridRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitGrid after Close = %v, want ErrClosed", err)
	}
}

// TestEngineOptionWire checks the compile-throughput metrics that used
// to share a test with the step-1 engine field: every real compile feeds
// them and a cache hit does not. The engine itself is off the wire;
// TestCompileErrors pins that a body still carrying it is rejected.
func TestEngineOptionWire(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	base := CompileRequest{Source: tinySrc, Level: "jumps"}
	capped := base
	capped.Replication.MaxSeqRTLs = 8
	for _, req := range []CompileRequest{base, capped, base} {
		if _, err := s.Compile(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.met.compileRTLs.Value(); n <= 0 {
		t.Fatalf("mccd_compile_rtls_total = %d after two compiles, want > 0", n)
	}
	if n := s.met.throughput.Count(); n != 2 {
		t.Fatalf("mccd_compile_rtls_per_second count = %d, want 2 (the repeat is a cache hit)", n)
	}
}

// TestSpellingsShareCacheEntry pins that the result cache is keyed by
// the resolved configuration, not by the request's spelling: letter case,
// aliases and defaults that select the same compile share one entry on
// /compile and /measure alike, while options that change the compile
// still miss.
func TestSpellingsShareCacheEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ctx := context.Background()

	type spelling struct {
		machine, level, heuristic string
		maxSeq                    int
		tv                        bool
	}
	cached := func(kind string, sp spelling) bool {
		t.Helper()
		rep := ReplicationOptions{Heuristic: sp.heuristic, MaxSeqRTLs: sp.maxSeq}
		if kind == "compile" {
			res, err := s.Compile(ctx, CompileRequest{
				Source: tinySrc, Machine: sp.machine, Level: sp.level, Replication: rep, TV: sp.tv,
			})
			if err != nil {
				t.Fatalf("compile %+v: %v", sp, err)
			}
			return res.Cached
		}
		res, err := s.Measure(ctx, MeasureRequest{
			Source: tinySrc, Machine: sp.machine, Level: sp.level, Replication: rep, TV: sp.tv,
		})
		if err != nil {
			t.Fatalf("measure %+v: %v", sp, err)
		}
		return res.Cached
	}
	// Each group starts from a configuration no earlier group compiled, so
	// its first request is a genuine miss.
	groups := []struct {
		first  spelling
		same   []spelling
		differ []spelling
	}{
		{
			first:  spelling{machine: "sparc", level: "jumps"},
			same:   []spelling{{machine: "sparc", level: "JUMPS"}, {machine: "sparc"}},
			differ: []spelling{{machine: "sparc", level: "jumps", maxSeq: 8}, {machine: "sparc", level: "jumps", tv: true}},
		},
		{
			first: spelling{machine: "x86", level: "dups"},
			same:  []spelling{{machine: "x86", level: "dups", heuristic: "shortest"}, {machine: "x86", level: "dups", heuristic: "Shortest"}},
		},
		{
			first: spelling{machine: "68020", level: "simple"},
			same:  []spelling{{machine: "68k", level: "simple"}, {level: "simple"}},
		},
	}
	for _, kind := range []string{"compile", "measure"} {
		for _, g := range groups {
			if cached(kind, g.first) {
				t.Fatalf("%s %+v: first request served from cache", kind, g.first)
			}
			for _, sp := range g.same {
				if !cached(kind, sp) {
					t.Errorf("%s %+v missed the cache entry of %+v", kind, sp, g.first)
				}
			}
			for _, sp := range g.differ {
				if cached(kind, sp) {
					t.Errorf("%s %+v served from the cache entry of %+v", kind, sp, g.first)
				}
			}
		}
	}
}

// TestVerifyEachWire covers the verify-each mode on the wire: the flag
// participates in both cache keys, a clean program reports no violations
// (and increments no violation counter), and the response carries the
// structured diagnostics via Static.Verify.
func TestVerifyEachWire(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())

	base := CompileRequest{Source: tinySrc, Level: "jumps"}
	plain, err := s.Compile(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	vreq := base
	vreq.VerifyEach = true
	verified, err := s.Compile(context.Background(), vreq)
	if err != nil {
		t.Fatal(err)
	}
	if verified.Cached {
		t.Fatal("verify_each request served from the plain request's cache entry")
	}
	if len(verified.Static.Verify) != 0 {
		t.Fatalf("clean compile reported violations: %v", verified.Static.Verify)
	}
	if plain.Assembly != verified.Assembly {
		t.Fatal("verify_each changed the compiled output")
	}
	if n := s.met.verifyViol.Value(); n != 0 {
		t.Fatalf("mccd_verify_violations_total = %d after clean compiles, want 0", n)
	}

	mplain := MeasureRequest{Program: "queens"}
	if _, err := s.Measure(context.Background(), mplain); err != nil {
		t.Fatal(err)
	}
	mver := mplain
	mver.VerifyEach = true
	mres, err := s.Measure(context.Background(), mver)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Cached {
		t.Fatal("verify_each measure served from the plain measure's cache entry")
	}
	if len(mres.Static.Verify) != 0 {
		t.Fatalf("clean measure reported violations: %v", mres.Static.Verify)
	}
}

// TestJobTimeout bounds a synchronous job: the waiter gives up even if
// the job itself would take longer.
func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	// Park the worker so the submitted job cannot start before the
	// timeout fires.
	release := make(chan struct{})
	defer close(release)
	running := make(chan struct{})
	s.pool.Submit(context.Background(), func(context.Context) {
		close(running)
		<-release
	})
	<-running
	_, err := s.Compile(context.Background(), CompileRequest{Source: tinySrc})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compile with parked worker = %v, want DeadlineExceeded", err)
	}
}

// TestPanicBecomesError routes a panicking job through runSync and
// expects an error response, not a crashed worker.
func TestPanicBecomesError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	_, err := s.runSync(context.Background(), jobMeta{kind: "test"}, func(context.Context) (any, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("runSync panic = %v, want job-panicked error", err)
	}
	// The worker survived: the next job runs fine.
	v, err := s.runSync(context.Background(), jobMeta{kind: "test"}, func(context.Context) (any, error) {
		return 7, nil
	})
	if err != nil || v.(int) != 7 {
		t.Fatalf("after panic: %v, %v", v, err)
	}
}
