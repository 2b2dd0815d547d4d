package graphalgo

import (
	"testing"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/workload"
)

// wccCfg is the shape of the end-to-end WCC benchmark: two processes of
// one worker each, so every exchange crosses the transport.
func wccCfg() runtime.Config {
	return runtime.Config{Processes: 2, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal}
}

// runWCCBytes runs WCC on edges in a fresh computation and returns the
// labels and the data bytes the computation moved between processes.
func runWCCBytes(tb testing.TB, edges []workload.Edge) (map[int64]int64, int64) {
	tb.Helper()
	labels, m := runWCCMetrics(tb, edges)
	return labels, m.DataBytes
}

// runWCCMetrics runs WCC on edges in a fresh computation and returns the
// labels and the computation's metrics.
func runWCCMetrics(tb testing.TB, edges []workload.Edge) (map[int64]int64, *runtime.MetricsSnapshot) {
	tb.Helper()
	s, err := lib.NewScope(wccCfg())
	if err != nil {
		tb.Fatal(err)
	}
	labels, err := WCC(s, edges, 1_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	return labels, s.C.Metrics()
}

// TestWCCDataBytesRepeat runs WCC three times on one fixed power-law graph
// and requires the same labels and the same cross-process data volume, to
// the end-to-end benchmark's 0.1% bound: that benchmark compares the volume
// of two runs of one graph. The loop operators emit batch-at-a-time, so the
// volume depends on how input batches are cut. Cutting them by timing (say,
// several input batches per worker interleaving with the peer's frames)
// makes the volume vary by percents between reruns. What remains is a few
// frames' worth: a worker drains every mailbox item that has arrived before
// it cascades and flushes, so frame boundaries follow arrival timing.
func TestWCCDataBytesRepeat(t *testing.T) {
	edges := workload.PowerLawGraph(7, 5_000, 20_000, 1.5)
	want := workload.ExpectedWCC(edges)
	var lo, hi int64
	for run := 0; run < 3; run++ {
		got, bytes := runWCCBytes(t, edges)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d labelled nodes, want %d", run, len(got), len(want))
		}
		for n, w := range want {
			if got[n] != w {
				t.Fatalf("run %d: node %d label %d, want %d", run, n, got[n], w)
			}
		}
		if bytes == 0 {
			t.Fatalf("run %d moved no data between processes", run)
		}
		if run == 0 || bytes < lo {
			lo = bytes
		}
		if bytes > hi {
			hi = bytes
		}
	}
	if float64(hi-lo) > 0.001*float64(lo) {
		t.Fatalf("data bytes of one graph vary %d..%d between runs, beyond 0.1%%", lo, hi)
	}
}

// BenchmarkWCC runs one WCC job per iteration on a fixed power-law graph
// over two processes of one worker each, reporting allocations, the
// cross-process data volume and the proposals (records fed back around
// the loop) per job.
func BenchmarkWCC(b *testing.B) {
	edges := workload.PowerLawGraph(11, 20_000, 80_000, 1.5)
	b.ReportAllocs()
	var bytes, proposals int64
	for i := 0; i < b.N; i++ {
		_, m := runWCCMetrics(b, edges)
		bytes += m.DataBytes
		for _, st := range m.Stages {
			if st.Name == "Feedback" {
				proposals += st.Records
			}
		}
	}
	b.ReportMetric(float64(bytes)/1e6/float64(b.N), "MB/job")
	b.ReportMetric(float64(proposals)/float64(b.N), "proposals/job")
}

// runLabels runs one min-label dataflow on edges over two processes and
// returns its output in arrival order, with the computation's metrics.
func runLabels[K comparable](t *testing.T, edges []workload.Edge,
	build func(*lib.Scope, *lib.Stream[workload.Edge]) *lib.Stream[lib.Pair[K, int64]]) ([]lib.Pair[K, int64], *runtime.MetricsSnapshot) {
	t.Helper()
	s, err := lib.NewScope(wccCfg())
	if err != nil {
		t.Fatal(err)
	}
	in, stream := lib.NewInput[workload.Edge](s, "edges", EdgeCodec())
	col := lib.Collect(build(s, stream))
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.Send(edges...)
	in.Close()
	if err := s.C.Join(); err != nil {
		t.Fatal(err)
	}
	return col.Epoch(0), s.C.Metrics()
}

// checkImprovements requires every key's values in out to strictly
// decrease and to end at the reference value.
func checkImprovements[K comparable](t *testing.T, name string, out []lib.Pair[K, int64], want map[K]int64) {
	t.Helper()
	last := make(map[K]int64)
	for _, p := range out {
		if cur, ok := last[p.Key]; ok && p.Val >= cur {
			t.Fatalf("%s: key %v left the loop with %d after %d", name, p.Key, p.Val, cur)
		}
		last[p.Key] = p.Val
	}
	if len(last) != len(want) {
		t.Fatalf("%s: %d keys left the loop, want %d", name, len(last), len(want))
	}
	for k, w := range want {
		if got, ok := last[k]; !ok || got != w {
			t.Fatalf("%s: key %v ends at %d (present %v), want %d", name, k, got, ok, w)
		}
	}
}

// TestMinLabelLoopsLeaveImprovementsOnly runs WCC, SCC's directed labels and
// ASP on a small power-law graph over two processes. What leaves each loop
// is the aggregate's output, so every key's values strictly decrease and
// the last is the answer. For WCC the metrics must also show that the loop
// leaves with exactly what Join consumed on its left: Egress records plus
// the edge-side Ingress records equal Join's records.
func TestMinLabelLoopsLeaveImprovementsOnly(t *testing.T) {
	edges := workload.PowerLawGraph(5, 300, 1200, 1.5)

	out, m := runLabels(t, edges, func(s *lib.Scope, e *lib.Stream[workload.Edge]) *lib.Stream[lib.Pair[int64, int64]] {
		return BuildWCC(s, e, 1_000_000)
	})
	checkImprovements(t, "WCC", out, workload.ExpectedWCC(edges))
	var adjacency int64 // records of the undirected edge stream
	for _, e := range edges {
		if e.Src != e.Dst {
			adjacency += 2
		}
	}
	records := make(map[string]int64)
	edgeIngress := false
	for _, st := range m.Stages {
		records[st.Name] += st.Records
		if st.Name == "Ingress" && st.Records == adjacency {
			edgeIngress = true
		}
	}
	if !edgeIngress {
		t.Fatalf("no Ingress stage took the %d adjacency records: %v", adjacency, m)
	}
	if records["Egress"]+adjacency != records["Join"] {
		t.Fatalf("Egress %d + edge Ingress %d != Join %d: the loop does not leave with Join's left input",
			records["Egress"], adjacency, records["Join"])
	}

	out, _ = runLabels(t, edges, func(s *lib.Scope, e *lib.Stream[workload.Edge]) *lib.Stream[lib.Pair[int64, int64]] {
		return directedMinLabels(s, e, 1_000_000)
	})
	checkImprovements(t, "directed labels", out, minReachingIDs(edges))

	var sources []int64
	for _, e := range edges[:3] {
		sources = append(sources, e.Src)
	}
	dists, _ := runLabels(t, edges, func(s *lib.Scope, e *lib.Stream[workload.Edge]) *lib.Stream[lib.Pair[SrcNode, int64]] {
		return BuildASP(s, e, sources, 1_000_000)
	})
	checkImprovements(t, "ASP", dists, BFSDistances(edges, sources))
}

// minReachingIDs is the reference for directedMinLabels: each node's
// label is the least id that reaches it along edge direction, itself
// included, computed by relaxing every edge until nothing changes.
func minReachingIDs(edges []workload.Edge) map[int64]int64 {
	label := make(map[int64]int64)
	for _, e := range edges {
		label[e.Src], label[e.Dst] = e.Src, e.Dst
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if label[e.Src] < label[e.Dst] {
				label[e.Dst] = label[e.Src]
				changed = true
			}
		}
	}
	return label
}
