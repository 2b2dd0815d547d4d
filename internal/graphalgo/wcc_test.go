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
	s, err := lib.NewScope(wccCfg())
	if err != nil {
		tb.Fatal(err)
	}
	labels, err := WCC(s, edges, 1_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	return labels, s.C.Metrics().DataBytes
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
// over two processes of one worker each, reporting allocations and the
// cross-process data volume per job.
func BenchmarkWCC(b *testing.B) {
	edges := workload.PowerLawGraph(11, 20_000, 80_000, 1.5)
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		_, n := runWCCBytes(b, edges)
		bytes += n
	}
	b.ReportMetric(float64(bytes)/1e6/float64(b.N), "MB/job")
}
