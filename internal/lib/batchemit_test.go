package lib

import (
	"fmt"
	"sort"
	"testing"

	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

type kv = Pair[int64, int64]

// shapeRecorder is a sink vertex that notes every delivery's epoch, its
// records and whether it arrived as a typed []T column.
type shapeRecorder[T any] struct {
	recs       []T
	deliveries map[int64]int // epoch → deliveries
	typed      int           // deliveries as a []T column
	other      int           // deliveries boxed, through OnRecv or a boxed column
}

func (r *shapeRecorder[T]) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	r.deliveries[t.Epoch]++
	r.other++
	r.recs = append(r.recs, msg.(T))
}

func (r *shapeRecorder[T]) OnRecvBatch(_ int, b *runtime.Batch, t ts.Timestamp) {
	r.deliveries[t.Epoch]++
	if data, ok := b.Col().Slice().([]T); ok {
		r.typed++
		r.recs = append(r.recs, data...)
		return
	}
	r.other++
	for i := 0; i < b.Len(); i++ {
		r.recs = append(r.recs, b.Record(i).(T))
	}
}

func (r *shapeRecorder[T]) OnNotify(ts.Timestamp) {}

// record attaches a shapeRecorder on worker 0 downstream of s, with a probe
// on it.
func record[T any](s *Stream[T]) (*shapeRecorder[T], *runtime.Probe) {
	rec := &shapeRecorder[T]{deliveries: make(map[int64]int)}
	c := s.scope.C
	st := c.AddStage("Record", graph.RoleNormal, s.depth,
		func(*runtime.Context) runtime.Vertex { return rec }, runtime.Pinned(0))
	c.Connect(s.stage, s.port, st, nil, s.cod)
	return rec, c.NewProbe(st)
}

// feed sends records into the input's current epoch: as one typed batch,
// or boxed, one record at a time.
func feed[T any](in *Input[T], boxed bool, recs []T) {
	if !boxed {
		in.Send(recs...)
		return
	}
	for _, r := range recs {
		in.Raw().Send(r)
	}
}

// One process, so batches cross between workers by reference and a boxed
// column stays boxed all the way to the operator.
func diffCfg() runtime.Config {
	return runtime.Config{Processes: 1, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
}

func sortedKVs(xs []kv) string {
	out := append([]kv(nil), xs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Val < out[j].Val
	})
	return fmt.Sprint(out)
}

// TestJoinTypedMatchesBoxed feeds Join the same records once as typed
// batches and once boxed per record: the output multisets must agree with
// each other and with the cross product per key, and typed input must
// reach downstream only as []Pair columns.
func TestJoinTypedMatchesBoxed(t *testing.T) {
	var left, right []kv
	var want []kv
	for k := int64(0); k < 40; k++ {
		for j := int64(0); j <= k%3; j++ {
			left = append(left, KV(k, k*10+j))
		}
	}
	for k := int64(20); k < 60; k++ {
		for j := int64(0); j <= k%2; j++ {
			right = append(right, KV(k, 1000+k*10+j))
		}
	}
	for _, a := range left {
		for _, b := range right {
			if a.Key == b.Key {
				want = append(want, KV(a.Val, b.Val))
			}
		}
	}
	run := func(boxed bool) *shapeRecorder[kv] {
		s := newTestScope(t, diffCfg())
		inL, l := NewInput[kv](s, "left", nil)
		inR, r := NewInput[kv](s, "right", nil)
		joined := Join(l, r, func(_ int64, a, b int64) kv { return KV(a, b) }, nil)
		rec, _ := record(joined)
		if err := s.C.Start(); err != nil {
			t.Fatal(err)
		}
		// Two epochs, each side split across them.
		feed(inL, boxed, left[:len(left)/2])
		feed(inR, boxed, right[len(right)/2:])
		inL.Advance()
		inR.Advance()
		feed(inL, boxed, left[len(left)/2:])
		feed(inR, boxed, right[:len(right)/2])
		inL.Close()
		inR.Close()
		join(t, s)
		return rec
	}
	typed, boxed := run(false), run(true)
	if got := sortedKVs(typed.recs); got != sortedKVs(want) {
		t.Fatalf("typed Join output differs from the cross product:\n got %s\nwant %s", got, sortedKVs(want))
	}
	if got := sortedKVs(boxed.recs); got != sortedKVs(typed.recs) {
		t.Fatalf("boxed and typed Join outputs differ:\nboxed %s\ntyped %s", got, sortedKVs(typed.recs))
	}
	if typed.typed == 0 || typed.other != 0 {
		t.Fatalf("typed Join output: %d []Pair deliveries, %d boxed; want only []Pair", typed.typed, typed.other)
	}
	// Every typed delivery is a whole callback's output, not one record.
	if typed.typed >= len(want) {
		t.Fatalf("typed Join made %d deliveries for %d records: not batched", typed.typed, len(want))
	}
}

// TestAggregateMonotonicTypedMatchesBoxed feeds AggregateMonotonic the same
// records once as typed batches and once boxed per record: both must
// settle on the same per-key best, typed input must reach downstream only
// as []Pair columns, and an epoch with no improvement must send nothing.
func TestAggregateMonotonicTypedMatchesBoxed(t *testing.T) {
	var first, worse []kv
	wantBest := make(map[int64]int64)
	for k := int64(0); k < 50; k++ {
		for j := int64(0); j < 4; j++ {
			v := (k*7 + j*13) % 100
			first = append(first, KV(k, v))
			if cur, ok := wantBest[k]; !ok || v < cur {
				wantBest[k] = v
			}
		}
		worse = append(worse, KV(k, 100+k))
	}
	run := func(boxed bool) *shapeRecorder[kv] {
		s := newTestScope(t, diffCfg())
		in, src := NewInput[kv](s, "in", nil)
		best := AggregateMonotonic(src, func(cand, inc int64) bool { return cand < inc })
		rec, probe := record(best)
		if err := s.C.Start(); err != nil {
			t.Fatal(err)
		}
		feed(in, boxed, first)
		in.Advance()
		// Epoch 0 has settled everywhere before epoch 1 arrives, so no
		// record of epoch 1 can improve on a key's best.
		probe.WaitFor(0)
		feed(in, boxed, worse)
		in.Close()
		join(t, s)
		return rec
	}
	for _, boxed := range []bool{false, true} {
		rec := run(boxed)
		got := make(map[int64]int64)
		for _, p := range rec.recs {
			if cur, ok := got[p.Key]; !ok || p.Val < cur {
				got[p.Key] = p.Val
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(wantBest) {
			t.Fatalf("boxed=%v: per-key best %v, want %v", boxed, got, wantBest)
		}
		if n := rec.deliveries[1]; n != 0 {
			t.Fatalf("boxed=%v: an epoch without improvements made %d deliveries, want none", boxed, n)
		}
		if !boxed && (rec.typed == 0 || rec.other != 0) {
			t.Fatalf("typed AggregateMonotonic output: %d []Pair deliveries, %d boxed; want only []Pair",
				rec.typed, rec.other)
		}
	}
}

// TestAggregateMonotonicPreReduces checks that AggregateMonotonic sends at
// most one record per key per callback, carrying the batch's best: a key
// improved twice in one batch overwrites its earlier output. One worker,
// so each fed batch is a single callback.
func TestAggregateMonotonicPreReduces(t *testing.T) {
	const k, j int64 = 1, 2
	batches := [][]kv{
		{{Key: k, Val: 5}, {Key: k, Val: 3}, {Key: k, Val: 4}, {Key: j, Val: 9}},
		{{Key: k, Val: 3}, {Key: j, Val: 8}},
	}
	run := func(boxed bool) *shapeRecorder[kv] {
		s := newTestScope(t, runtime.Config{Processes: 1, WorkersPerProcess: 1})
		in, src := NewInput[kv](s, "in", nil)
		best := AggregateMonotonic(src, func(cand, inc int64) bool { return cand < inc })
		rec, probe := record(best)
		if err := s.C.Start(); err != nil {
			t.Fatal(err)
		}
		for e, b := range batches {
			feed(in, boxed, b)
			in.Advance()
			probe.WaitFor(int64(e))
		}
		in.Close()
		join(t, s)
		return rec
	}
	typed := run(false)
	if got := fmt.Sprint(typed.recs); got != fmt.Sprint([]kv{{Key: k, Val: 3}, {Key: j, Val: 9}, {Key: j, Val: 8}}) {
		t.Fatalf("typed output %s, want [{1 3} {2 9}] then [{2 8}]", got)
	}
	if typed.deliveries[0] != 1 || typed.deliveries[1] != 1 {
		t.Fatalf("typed deliveries per epoch %v, want one each", typed.deliveries)
	}
	bests := func(recs []kv) map[int64]int64 {
		m := make(map[int64]int64)
		for _, p := range recs {
			if cur, ok := m[p.Key]; !ok || p.Val < cur {
				m[p.Key] = p.Val
			}
		}
		return m
	}
	if got, want := bests(run(true).recs), bests(typed.recs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("boxed per-key bests %v, typed %v", got, want)
	}
}
