package runtime

import (
	"testing"

	"naiad/internal/batchbuf"
)

type scatterRec struct{ v int }

// TestScatterBatchExactSize checks that routeBatch's scatter builds each
// destination's sub-batch at exactly its record count, in input order, and
// leaves destinations without records empty. The input batch lives in a
// pool of the test's own, which NewLike draws the sub-batches from: it
// starts empty on every run, so each sub-batch's capacity is the one
// scatterBatch asked for, whatever earlier runs left in the process-wide
// pools.
func TestScatterBatchExactSize(t *testing.T) {
	const n, peers = 1000, 4
	recs := make([]scatterRec, n)
	hashes := make([]uint64, n)
	want := make([][]int, peers)
	for i := range recs {
		recs[i] = scatterRec{v: i}
		dv := (i * 7 % 11) % 3 // destination 3 receives nothing
		hashes[i] = uint64(dv + peers*i)
		want[dv] = append(want[dv], i)
	}
	b, col := batchbuf.NewPool[scatterRec]().Get(n)
	col.Data = append(col.Data, recs...)
	subs := make([]*batchbuf.Batch, peers)
	scatterBatch(b, hashes, subs, make([]int, peers))
	b.Release()
	for dv, sub := range subs {
		if len(want[dv]) == 0 {
			if sub != nil {
				t.Fatalf("destination %d without records got a %d-record batch", dv, sub.Len())
			}
			continue
		}
		got := sub.Col().Slice().([]scatterRec)
		if len(got) != len(want[dv]) || cap(got) != len(got) {
			t.Fatalf("destination %d: %d records in capacity %d, want exactly %d",
				dv, len(got), cap(got), len(want[dv]))
		}
		for j, i := range want[dv] {
			if got[j].v != i {
				t.Fatalf("destination %d record %d is %d, want %d", dv, j, got[j].v, i)
			}
		}
		sub.Release()
	}
}
