package graphalgo

import (
	"fmt"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/workload"
)

// directedMinLabels propagates each node's minimum "seen" id along edge
// direction: the result maps every node to the minimum id that can reach
// it. Reversing the edges gives the minimum id each node can reach. The
// stream carries each node's label improvements, strictly decreasing; the
// per-node minimum is the answer.
func directedMinLabels(s *lib.Scope, edges *lib.Stream[workload.Edge], maxIters int64) *lib.Stream[lib.Pair[int64, int64]] {
	keyed := lib.Select(edges, func(e workload.Edge) lib.Pair[int64, int64] {
		return lib.KV(e.Src, e.Dst)
	}, PairCodec())
	// An edge's source reaches its destination, so the destination starts
	// from the lesser of the two ids and the source from its own.
	seeds := lib.SelectMany(edges, func(e workload.Edge) []lib.Pair[int64, int64] {
		return []lib.Pair[int64, int64]{lib.KV(e.Src, e.Src), lib.KV(e.Dst, min(e.Src, e.Dst))}
	}, PairCodec())
	edgesIn := lib.EnterLoop(keyed, 1)
	return minLabels(seeds, maxIters, func(best *lib.Stream[lib.Pair[int64, int64]]) *lib.Stream[lib.Pair[int64, int64]] {
		return lib.Join(best, edgesIn, func(_ int64, label, dst int64) lib.Pair[int64, int64] {
			return lib.KV(dst, label)
		}, PairCodec())
	})
}

// sccRound computes forward and backward min-labels for the remaining
// subgraph in one timely computation with two independent loops.
func sccRound(cfg runtime.Config, edges []workload.Edge, maxIters int64) (fwd, bwd map[int64]int64, err error) {
	s, err := lib.NewScope(cfg)
	if err != nil {
		return nil, nil, err
	}
	in, stream := lib.NewInput[workload.Edge](s, "edges", EdgeCodec())
	rev := lib.Select(stream, func(e workload.Edge) workload.Edge {
		return workload.Edge{Src: e.Dst, Dst: e.Src}
	}, EdgeCodec())
	fwdLabels := directedMinLabels(s, stream, maxIters)
	bwdLabels := directedMinLabels(s, rev, maxIters)
	fwdCol := lib.Collect(fwdLabels)
	bwdCol := lib.Collect(bwdLabels)
	if err := s.C.Start(); err != nil {
		return nil, nil, err
	}
	in.Send(edges...)
	in.Close()
	if err := s.C.Join(); err != nil {
		return nil, nil, err
	}
	collapse := func(col *lib.Collector[lib.Pair[int64, int64]]) map[int64]int64 {
		m := make(map[int64]int64)
		for _, p := range col.All() {
			if cur, ok := m[p.Key]; !ok || p.Val < cur {
				m[p.Key] = p.Val
			}
		}
		return m
	}
	return collapse(fwdCol), collapse(bwdCol), nil
}

// SCC computes strongly connected components with the forward/backward
// min-label trimming algorithm the paper's SCC program uses (§6.1): each
// round, a node whose forward label (minimum id that reaches it) equals
// its backward label (minimum id it reaches) belongs to that id's SCC;
// assigned nodes are removed and the rounds repeat on the shrinking
// subgraph, each round a fresh timely computation. Singleton nodes are
// their own components.
func SCC(cfg runtime.Config, edges []workload.Edge, maxIters int64) (map[int64]int64, error) {
	assign := make(map[int64]int64)
	remaining := append([]workload.Edge(nil), edges...)
	nodes := make(map[int64]struct{})
	for _, e := range edges {
		nodes[e.Src] = struct{}{}
		nodes[e.Dst] = struct{}{}
	}
	for round := 0; len(remaining) > 0; round++ {
		if round > len(nodes)+1 {
			return nil, fmt.Errorf("graphalgo: SCC failed to converge after %d rounds", round)
		}
		fwd, bwd, err := sccRound(cfg, remaining, maxIters)
		if err != nil {
			return nil, err
		}
		newly := make(map[int64]int64)
		for n, f := range fwd {
			if b, ok := bwd[n]; ok && b == f {
				newly[n] = f
			}
		}
		if len(newly) == 0 {
			return nil, fmt.Errorf("graphalgo: SCC round %d assigned nothing", round)
		}
		for n, c := range newly {
			assign[n] = c
		}
		// Keep only edges between two unassigned nodes.
		kept := remaining[:0]
		for _, e := range remaining {
			if _, a := assign[e.Src]; a {
				continue
			}
			if _, b := assign[e.Dst]; b {
				continue
			}
			kept = append(kept, e)
		}
		remaining = kept
	}
	// Nodes never assigned (all their edges vanished) are singletons.
	for n := range nodes {
		if _, ok := assign[n]; !ok {
			assign[n] = n
		}
	}
	return assign, nil
}
