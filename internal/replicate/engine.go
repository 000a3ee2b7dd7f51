package replicate

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// PathEngine selects the implementation of step 1 of the JUMPS algorithm:
// the shortest-RTL-path computation over the flow graph that every
// candidate replication sequence is read from.
type PathEngine uint8

// The available path engines.
const (
	// EngineOracle is the default: an on-demand single-source engine that
	// runs Dijkstra lazily from each queried jump target and memoizes the
	// result for the lifetime of the sweep. Only jump targets are ever
	// queried, so the all-pairs work of the paper's step 1 is skipped; on
	// large functions this is the difference between O(J·E·log V) and
	// O(V³) per sweep.
	EngineOracle PathEngine = iota
	// EngineMatrix is the paper's formulation: the all-pairs Warshall/Floyd
	// matrix built eagerly once per sweep. Retained as the differential
	// reference — both engines answer every query identically (asserted by
	// the engine-equivalence tests), so the matrix mode exists for
	// cross-checking and benchmarking, not for production use.
	EngineMatrix
)

// String returns the engine's name ("oracle" or "matrix").
func (e PathEngine) String() string {
	switch e {
	case EngineOracle:
		return "oracle"
	case EngineMatrix:
		return "matrix"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// pathFinder abstracts step 1 for the sweep: per-block RTL costs, pairwise
// shortest distances (RTL count over the path, both endpoints included),
// and canonical shortest paths. Both implementations answer from a
// snapshot of the flow graph taken at construction (sweep start) — the
// sweep deliberately keeps using that snapshot while replications mutate
// the function, exactly as the paper's once-per-sweep matrix does; the
// next sweep constructs a fresh finder, which is the invalidation point.
type pathFinder interface {
	// cost returns the snapshot RTL count of block i.
	cost(i int) int
	// dist returns the minimal RTL count over paths i..j (both endpoints
	// included), or inf if no path exists. i == j is not a valid query
	// (callers special-case the single-block path).
	dist(i, j int) int
	// path returns the canonical shortest block-index sequence from i to j
	// (inclusive), the single-block path for i == j, or nil if none exists.
	path(i, j int) []int
}

// newPathFinder builds the configured engine over the current flow graph.
func newPathFinder(f *cfg.Func, e *cfg.Edges, engine PathEngine) pathFinder {
	snap := snapshotGraph(f, e)
	if engine == EngineMatrix {
		return newPathMatrix(snap)
	}
	return newPathOracle(snap)
}

// graphSnapshot captures the flow graph's costs and transitions at sweep
// start: per-block RTL counts plus successor/predecessor adjacency with the
// paper's step-1 exclusions applied (no self-reflexive transitions, no
// transitions out of blocks ending in indirect jumps — a jump table cannot
// be spliced into straight-line code). Both engines and the shared path
// reconstruction read only this snapshot, which is what makes their
// answers identical while the sweep mutates the underlying function.
type graphSnapshot struct {
	cost  []int
	succs [][]int
	preds [][]int
}

// snapshotGraph captures f's blocks and edges. The adjacency rows are
// views into two shared backing arrays (one per direction), sized by a
// counting pass, so a snapshot costs a fixed handful of allocations rather
// than one per block.
func snapshotGraph(f *cfg.Func, e *cfg.Edges) *graphSnapshot {
	n := len(f.Blocks)
	s := &graphSnapshot{
		cost:  make([]int, n),
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
	keep := func(i, j int) bool {
		if j == i {
			return false // no self-reflexive transitions
		}
		if t := f.Blocks[i].Term(); t != nil && t.Kind == rtl.IJmp {
			return false // paths may not traverse indirect jumps
		}
		return true
	}
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	total := 0
	for i, b := range f.Blocks {
		s.cost[i] = len(b.Insts)
		for _, sb := range e.Succs[i] {
			if keep(i, sb.Index) {
				outDeg[i]++
				inDeg[sb.Index]++
				total++
			}
		}
	}
	sBack := make([]int, total)
	pBack := make([]int, total)
	so, po := 0, 0
	for i := 0; i < n; i++ {
		s.succs[i] = sBack[so : so : so+outDeg[i]]
		so += outDeg[i]
		s.preds[i] = pBack[po : po : po+inDeg[i]]
		po += inDeg[i]
	}
	for i := range f.Blocks {
		for _, sb := range e.Succs[i] {
			if j := sb.Index; keep(i, j) {
				s.succs[i] = append(s.succs[i], j)
				s.preds[j] = append(s.preds[j], i)
			}
		}
	}
	return s
}

// canonPath reconstructs the canonical shortest path from src to dst out
// of single-source distances alone, so every engine that computes correct
// distances yields byte-identical candidate sequences. distTo(x) must
// return the minimal RTL count src..x (both endpoints included), inf when
// unreachable, and cost[src] for x == src (the trivial path).
//
// The canonical choice: walking backwards from dst, always take the
// lowest-indexed predecessor that lies on some shortest path and has not
// been visited yet (the visit guard makes zero-cost cycles, which tie with
// their own repetitions, terminate). Returns nil when reconstruction fails
// (unreachable dst, or a pathological all-visited frontier).
func canonPath(snap *graphSnapshot, distTo func(int) int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if distTo(dst) >= inf {
		return nil
	}
	n := len(snap.cost)
	seq := make([]int, 0, 8)
	seq = append(seq, dst)
	inSeq := make(map[int]bool, 8)
	inSeq[dst] = true
	x := dst
	for x != src {
		if len(seq) > n {
			return nil // fail safe; cannot happen with consistent distances
		}
		dx := distTo(x)
		best := -1
		for _, p := range snap.preds[x] {
			if inSeq[p] || (best >= 0 && p >= best) {
				continue
			}
			if dp := distTo(p); dp < inf && dp+snap.cost[x] == dx {
				best = p
			}
		}
		if best < 0 {
			return nil
		}
		seq = append(seq, best)
		inSeq[best] = true
		x = best
	}
	// Built back-to-front; reverse in place.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}
