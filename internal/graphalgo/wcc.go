// Package graphalgo implements the graph computations of the paper's
// evaluation (§6.1): weakly connected components, PageRank in several
// layerings, strongly connected components, and approximate shortest
// paths — together with sequential references used to validate them.
package graphalgo

import (
	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/workload"
)

// EdgeCodec is the fast binary codec for workload.Edge records.
func EdgeCodec() codec.Codec {
	return codec.New(
		func(e *codec.Encoder, v workload.Edge) { e.PutInt64(v.Src); e.PutInt64(v.Dst) },
		func(d *codec.Decoder) workload.Edge { return workload.Edge{Src: d.Int64(), Dst: d.Int64()} },
	)
}

// PairCodec is the fast binary codec for Pair[int64, int64] records.
func PairCodec() codec.Codec {
	return codec.New(
		func(e *codec.Encoder, v lib.Pair[int64, int64]) { e.PutInt64(v.Key); e.PutInt64(v.Val) },
		func(d *codec.Decoder) lib.Pair[int64, int64] {
			return lib.Pair[int64, int64]{Key: d.Int64(), Val: d.Int64()}
		},
	)
}

// BuildWCC wires the label-propagation weakly-connected-components dataflow
// into a scope: every node's label converges to the minimum node id in its
// (undirected) component. The computation is incremental across epochs
// because min-label is monotone under edge additions — feeding more edges
// in later epochs emits only label improvements (§6.4's incremental
// connected components). The returned stream carries each node's label
// improvements, strictly decreasing; the final assignment for an epoch is
// the per-node minimum across all emissions at or before it.
func BuildWCC(s *lib.Scope, edges *lib.Stream[workload.Edge], maxIters int64) *lib.Stream[lib.Pair[int64, int64]] {
	// Undirect the edges and key them by source.
	both := lib.SelectMany(edges, func(e workload.Edge) []lib.Pair[int64, int64] {
		if e.Src == e.Dst {
			return nil
		}
		return []lib.Pair[int64, int64]{lib.KV(e.Src, e.Dst), lib.KV(e.Dst, e.Src)}
	}, PairCodec())

	// Both endpoints of an edge start from the lesser of their ids: a
	// component member no larger than either's own id, so the first round
	// of propagation comes with the seeds.
	seeds := lib.SelectMany(edges, func(e workload.Edge) []lib.Pair[int64, int64] {
		m := min(e.Src, e.Dst)
		return []lib.Pair[int64, int64]{lib.KV(e.Src, m), lib.KV(e.Dst, m)}
	}, PairCodec())

	edgesIn := lib.EnterLoop(both, 1)
	return minLabels(seeds, maxIters, func(best *lib.Stream[lib.Pair[int64, int64]]) *lib.Stream[lib.Pair[int64, int64]] {
		// Propose each label improvement to the node's neighbors.
		return lib.Join(best, edgesIn, func(_ int64, label, neighbor int64) lib.Pair[int64, int64] {
			return lib.KV(neighbor, label)
		}, PairCodec())
	})
}

// minLabels is the min-label loop behind WCC, SCC and ASP: the seeds and
// the fed-back proposals meet in an AggregateMonotonic, which keeps each
// key's least value across all times, and step turns its improvements into
// the next proposals. Only the aggregate's output leaves the loop, so each
// key's output is strictly decreasing and its last value is the fixed
// point. The egress is wired before step: each output batch reaches it
// before step's synchronous cascade can re-enter the aggregate, so the
// stream leaves in the order the aggregate emitted it.
func minLabels[K comparable](seeds *lib.Stream[lib.Pair[K, int64]], maxIters int64,
	step func(best *lib.Stream[lib.Pair[K, int64]]) *lib.Stream[lib.Pair[K, int64]]) *lib.Stream[lib.Pair[K, int64]] {
	loop := lib.NewLoop(seeds.Scope(), seeds.Depth(), seeds, maxIters)
	inner := lib.Concat(loop.Enter(seeds), loop.Feedback())
	best := lib.AggregateMonotonic(inner, func(cand, inc int64) bool { return cand < inc })
	out := lib.LeaveLoop(best)
	loop.Return(step(best))
	return out
}

// WCC runs weakly connected components to convergence on one edge set and
// returns each node's component (the minimum node id in it).
func WCC(s *lib.Scope, edgeList []workload.Edge, maxIters int64) (map[int64]int64, error) {
	in, edges := lib.NewInput[workload.Edge](s, "edges", EdgeCodec())
	labels := BuildWCC(s, edges, maxIters)
	col := lib.Collect(labels)
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	in.Send(edgeList...)
	in.Close()
	if err := s.C.Join(); err != nil {
		return nil, err
	}
	out := make(map[int64]int64)
	for _, p := range col.All() {
		if cur, ok := out[p.Key]; !ok || p.Val < cur {
			out[p.Key] = p.Val
		}
	}
	return out, nil
}
