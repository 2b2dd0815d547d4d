package graphalgo

import (
	"math/rand"

	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/workload"
)

// SrcNode keys a distance by (sampled source, node).
type SrcNode struct {
	Src, Node int64
}

// byNodeCodec serializes the rekeyed (node, (srcnode, dist)) records the
// propagation loop exchanges on every step; a hand-written codec keeps the
// inner loop off the gob reflection path.
func byNodeCodec() codec.Codec {
	return codec.New(
		func(e *codec.Encoder, v lib.Pair[int64, lib.Pair[SrcNode, int64]]) {
			e.PutInt64(v.Key)
			e.PutInt64(v.Val.Key.Src)
			e.PutInt64(v.Val.Key.Node)
			e.PutInt64(v.Val.Val)
		},
		func(d *codec.Decoder) lib.Pair[int64, lib.Pair[SrcNode, int64]] {
			return lib.Pair[int64, lib.Pair[SrcNode, int64]]{
				Key: d.Int64(),
				Val: lib.Pair[SrcNode, int64]{Key: SrcNode{Src: d.Int64(), Node: d.Int64()}, Val: d.Int64()},
			}
		},
	)
}

// distCodec serializes Pair[SrcNode, int64] distance records.
func distCodec() codec.Codec {
	return codec.New(
		func(e *codec.Encoder, v lib.Pair[SrcNode, int64]) {
			e.PutInt64(v.Key.Src)
			e.PutInt64(v.Key.Node)
			e.PutInt64(v.Val)
		},
		func(d *codec.Decoder) lib.Pair[SrcNode, int64] {
			return lib.Pair[SrcNode, int64]{Key: SrcNode{Src: d.Int64(), Node: d.Int64()}, Val: d.Int64()}
		},
	)
}

// BuildASP wires the approximate-shortest-paths dataflow of §6.1: BFS
// distance labels from a sample of source nodes propagate through the
// (undirected) graph, each (source, node) pair keeping its minimum
// distance via monotonic aggregation — the incremental, sparse-iteration
// algorithm the paper credits for ASP's 600× speedup over batch systems.
// The stream carries each pair's distance improvements, strictly
// decreasing; the per-pair minimum is the answer.
func BuildASP(s *lib.Scope, edges *lib.Stream[workload.Edge], sources []int64, maxIters int64) *lib.Stream[lib.Pair[SrcNode, int64]] {
	both := lib.SelectMany(edges, func(e workload.Edge) []lib.Pair[int64, int64] {
		if e.Src == e.Dst {
			return nil
		}
		return []lib.Pair[int64, int64]{lib.KV(e.Src, e.Dst), lib.KV(e.Dst, e.Src)}
	}, PairCodec())

	sampled := make(map[int64]struct{}, len(sources))
	for _, src := range sources {
		sampled[src] = struct{}{}
	}
	// Seed distance 0 at each sampled source.
	seeds := lib.SelectMany(edges, func(e workload.Edge) []lib.Pair[SrcNode, int64] {
		var out []lib.Pair[SrcNode, int64]
		if _, ok := sampled[e.Src]; ok {
			out = append(out, lib.Pair[SrcNode, int64]{Key: SrcNode{Src: e.Src, Node: e.Src}, Val: 0})
		}
		if _, ok := sampled[e.Dst]; ok {
			out = append(out, lib.Pair[SrcNode, int64]{Key: SrcNode{Src: e.Dst, Node: e.Dst}, Val: 0})
		}
		return out
	}, distCodec())

	edgesIn := lib.EnterLoop(both, 1)
	return minLabels(seeds, maxIters, func(best *lib.Stream[lib.Pair[SrcNode, int64]]) *lib.Stream[lib.Pair[SrcNode, int64]] {
		// Rekey by node to meet the adjacency, then step to neighbors.
		byNode := lib.Select(best, func(p lib.Pair[SrcNode, int64]) lib.Pair[int64, lib.Pair[SrcNode, int64]] {
			return lib.KV(p.Key.Node, p)
		}, byNodeCodec())
		return lib.Join(byNode, edgesIn, func(_ int64, dist lib.Pair[SrcNode, int64], neighbor int64) lib.Pair[SrcNode, int64] {
			return lib.Pair[SrcNode, int64]{Key: SrcNode{Src: dist.Key.Src, Node: neighbor}, Val: dist.Val + 1}
		}, distCodec())
	})
}

// ASP runs approximate shortest paths from k sampled sources and returns
// min distance per (source, node).
func ASP(s *lib.Scope, edgeList []workload.Edge, k int, seed int64, maxIters int64) (map[SrcNode]int64, error) {
	nodes := make(map[int64]struct{})
	for _, e := range edgeList {
		nodes[e.Src] = struct{}{}
		nodes[e.Dst] = struct{}{}
	}
	all := make([]int64, 0, len(nodes))
	for n := range nodes {
		all = append(all, n)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if k > len(all) {
		k = len(all)
	}
	sources := all[:k]

	in, edges := lib.NewInput[workload.Edge](s, "edges", EdgeCodec())
	dists := BuildASP(s, edges, sources, maxIters)
	col := lib.Collect(dists)
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	in.Send(edgeList...)
	in.Close()
	if err := s.C.Join(); err != nil {
		return nil, err
	}
	out := make(map[SrcNode]int64)
	for _, p := range col.All() {
		if cur, ok := out[p.Key]; !ok || p.Val < cur {
			out[p.Key] = p.Val
		}
	}
	return out, nil
}
