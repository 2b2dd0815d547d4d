package lib

import (
	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Join is the asynchronous, cumulative hash join of the Bloom subset
// (§4.2): it emits a match the moment both sides of a key have been seen,
// never calling NotifyAt, so Datalog-style loops built from it run without
// coordination. State accumulates for the lifetime of the operator, which
// is the monotone-set semantics those loops assume.
func Join[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]],
	f func(K, A, B) R, cod codec.Codec) *Stream[R] {
	if a.depth != b.depth {
		panic("lib: Join requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("Join", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		// Both sides of a key share one slot, so a record costs one map
		// lookup: append to its own side, then match against the other.
		var keys slots[K, joinSides[A, B]]
		v := &joinVertex[K, A, B, R]{out: newEmitter[R](ctx)}
		v.onLeft = func(rec Pair[K, A], t ts.Timestamp) {
			sd, _ := keys.get(rec.Key)
			sd.left = append(sd.left, rec.Val)
			for _, bv := range sd.right {
				v.out.emit(f(rec.Key, rec.Val, bv))
			}
		}
		v.onRight = func(rec Pair[K, B], t ts.Timestamp) {
			sd, _ := keys.get(rec.Key)
			sd.right = append(sd.right, rec.Val)
			for _, av := range sd.left {
				v.out.emit(f(rec.Key, av, rec.Val))
			}
		}
		return v
	})
	connect(c, a.stage, a.port, st, HashPair[K, A], a.cod) // input 0
	connect(c, b.stage, b.port, st, HashPair[K, B], b.cod) // input 1
	return &Stream[R]{scope: a.scope, stage: st, port: 0, cod: orGob[R](cod), depth: a.depth}
}

// joinSides is one key's state in Join: the values seen on each side.
type joinSides[A, B any] struct {
	left  []A
	right []B
}

// slots maps each key to a slot in a dense slice, so the keyed operators
// look a record's key up once. The returned pointer is valid until the
// next get.
type slots[K comparable, S any] struct {
	idx  map[K]int
	vals []S
}

// get returns k's slot, appending a zero slot if k is new.
func (x *slots[K, S]) get(k K) (s *S, fresh bool) {
	i, ok := x.idx[k]
	if !ok {
		if x.idx == nil {
			x.idx = make(map[K]int)
		}
		i = len(x.vals)
		x.idx[k] = i
		var zero S
		x.vals = append(x.vals, zero)
	}
	return &x.vals[i], !ok
}

// JoinByTime is the synchronous relational join: both inputs are buffered
// per timestamp and matches are emitted once the time completes, so each
// epoch joins exactly with its own epoch's records.
func JoinByTime[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]],
	f func(K, A, B) R, cod codec.Codec) *Stream[R] {
	if a.depth != b.depth {
		panic("lib: JoinByTime requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("JoinByTime", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		type buffered struct {
			left  []Pair[K, A]
			right []Pair[K, B]
		}
		buf := make(map[ts.Timestamp]*buffered)
		get := func(t ts.Timestamp) *buffered {
			bb := buf[t]
			if bb == nil {
				bb = &buffered{}
				buf[t] = bb
				ctx.NotifyAt(t)
			}
			return bb
		}
		v := &joinVertex[K, A, B, R]{out: newEmitter[R](ctx)}
		v.onLeft = func(rec Pair[K, A], t ts.Timestamp) { bb := get(t); bb.left = append(bb.left, rec) }
		v.onRight = func(rec Pair[K, B], t ts.Timestamp) { bb := get(t); bb.right = append(bb.right, rec) }
		v.onNotify = func(t ts.Timestamp) {
			bb := buf[t]
			delete(buf, t)
			left := make(map[K][]A)
			for _, p := range bb.left {
				left[p.Key] = append(left[p.Key], p.Val)
			}
			for _, p := range bb.right {
				for _, av := range left[p.Key] {
					v.out.emit(f(p.Key, av, p.Val))
				}
			}
		}
		return v
	})
	connect(c, a.stage, a.port, st, HashPair[K, A], a.cod)
	connect(c, b.stage, b.port, st, HashPair[K, B], b.cod)
	return &Stream[R]{scope: a.scope, stage: st, port: 0, cod: orGob[R](cod), depth: a.depth}
}

// joinVertex is the keyed binary vertex behind Join and JoinByTime. The
// operators supply per-record handlers for each input, and optionally a
// notification handler, which report their outputs through the emit hook
// out. Every callback — a record, a batch or a notification — ends by
// sending its outputs as a single batch.
type joinVertex[K comparable, A, B, R any] struct {
	onLeft   func(Pair[K, A], ts.Timestamp)
	onRight  func(Pair[K, B], ts.Timestamp)
	onNotify func(ts.Timestamp)
	out      *emitter[R]
}

func (v *joinVertex[K, A, B, R]) OnRecv(input int, msg runtime.Message, t ts.Timestamp) {
	v.recv(input, msg, t)
	v.out.end(t)
}

func (v *joinVertex[K, A, B, R]) recv(input int, msg runtime.Message, t ts.Timestamp) {
	if input == 0 {
		v.onLeft(msg.(Pair[K, A]), t)
	} else {
		v.onRight(msg.(Pair[K, B]), t)
	}
}

// OnRecvBatch unpacks a typed batch with one slice assertion per side;
// boxed or foreign columns fall back to per-record assertion. Either way
// the batch's matches leave as one batch.
func (v *joinVertex[K, A, B, R]) OnRecvBatch(input int, b *runtime.Batch, t ts.Timestamp) {
	left, okL := b.Col().Slice().([]Pair[K, A])
	right, okR := b.Col().Slice().([]Pair[K, B])
	switch {
	case input == 0 && okL:
		for _, rec := range left {
			v.onLeft(rec, t)
		}
	case input != 0 && okR:
		for _, rec := range right {
			v.onRight(rec, t)
		}
	default:
		for i, n := 0, b.Len(); i < n; i++ {
			v.recv(input, b.Record(i), t)
		}
	}
	v.out.end(t)
}

func (v *joinVertex[K, A, B, R]) OnNotify(t ts.Timestamp) {
	if v.onNotify != nil {
		v.onNotify(t)
		v.out.end(t)
	}
}

// emitter is the emit hook of the batch-at-a-time operators. It collects a
// callback's outputs into one pooled typed batch, which end — called as
// the callback finishes — sends with a single SendBatchBy at the
// callback's time t. The send happens inside the callback, so the runtime
// still posts the batch's +count before it retires the input's −count. A
// callback that collects nothing sends nothing.
type emitter[R any] struct {
	ctx  *runtime.Context
	pool *batchbuf.Pool[R]
	b    *runtime.Batch
	col  *batchbuf.Col[R]
}

func newEmitter[R any](ctx *runtime.Context) *emitter[R] {
	return &emitter[R]{ctx: ctx, pool: batchbuf.PoolFor[R]()}
}

func (e *emitter[R]) emit(r R) {
	if e.b == nil {
		e.b, e.col = e.pool.Get(0)
	}
	e.col.Data = append(e.col.Data, r)
}

// pending returns the outputs collected so far in this callback; an
// operator may overwrite them in place before end sends them.
func (e *emitter[R]) pending() []R {
	if e.col == nil {
		return nil
	}
	return e.col.Data
}

// end sends the collected batch. The emitter is reset before the send: a
// synchronous delivery may re-enter the vertex (a loop closed through the
// local fast path), and that callback collects its own outputs.
func (e *emitter[R]) end(t ts.Timestamp) {
	b := e.b
	e.b, e.col = nil, nil
	if b != nil {
		e.ctx.SendBatchBy(0, b, t)
	}
}

// emittingVertex is a unary vertexOf whose recv reports outputs of its
// input's type through the emit hook out: each delivery, a record or a
// whole batch, ends by sending them as one batch.
type emittingVertex[T any] struct {
	vertexOf[T]
	out *emitter[T]
}

func (v *emittingVertex[T]) OnRecv(input int, msg runtime.Message, t ts.Timestamp) {
	v.vertexOf.OnRecv(input, msg, t)
	v.out.end(t)
}

func (v *emittingVertex[T]) OnRecvBatch(input int, b *runtime.Batch, t ts.Timestamp) {
	v.vertexOf.OnRecvBatch(input, b, t)
	v.out.end(t)
}

// AggregateMonotonic keeps the best value per key under `better`, emitting
// whenever a key's value improves — the BloomL-style monotonic aggregation
// of §4.2. It never coordinates: inside a loop it may emit several times
// before settling, in exchange for fast uncoordinated iteration (§2.4). An
// input batch's improvements leave as one batch, with at most one record
// per key: a key improved twice in one callback overwrites its earlier
// output, so the batch carries each key's best.
func AggregateMonotonic[K comparable, V any](s *Stream[Pair[K, V]],
	better func(candidate, incumbent V) bool) *Stream[Pair[K, V]] {
	c := s.scope.C
	st := c.AddStage("AggMonotonic", graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		var keys slots[K, aggSlot[V]]
		out := newEmitter[Pair[K, V]](ctx)
		recv := func(_ int, rec Pair[K, V], _ ts.Timestamp) {
			sl, fresh := keys.get(rec.Key)
			if !fresh && !better(rec.Val, sl.best) {
				return
			}
			sl.best = rec.Val
			// The key is in this callback's batch only if the batch holds
			// it at the position noted when it was put there: a batch
			// holds each key at most once.
			d := out.pending()
			if sl.pos < len(d) && d[sl.pos].Key == rec.Key {
				d[sl.pos] = rec
				return
			}
			sl.pos = len(d)
			out.emit(rec)
		}
		return &emittingVertex[Pair[K, V]]{vertexOf: vertexOf[Pair[K, V]]{recv: recv}, out: out}
	})
	connect(c, s.stage, s.port, st, HashPair[K, V], s.cod)
	return &Stream[Pair[K, V]]{scope: s.scope, stage: st, port: 0, cod: s.cod, depth: s.depth}
}

// aggSlot is one key's state in AggregateMonotonic: its best value, and the
// position of its last output record in the batch it was emitted into.
type aggSlot[V any] struct {
	best V
	pos  int
}
