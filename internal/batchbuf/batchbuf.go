// Package batchbuf provides pooled, reference-counted record batches — the
// unit the data plane moves instead of individually boxed records. A Batch
// wraps a Column: either a typed column (Col[T], a plain []T that operators
// process without boxing) or a boxed column ([]any, the compatibility form
// for untyped paths). Batches recycle through sync.Pool arenas keyed by
// record type, so the steady-state record path allocates nothing.
//
// # Ownership rules
//
// Batches are explicitly owned; the rules are small and checkable:
//
//   - A batch obtained from a pool (Pool.Get, PoolFor[T]().Get, GetBoxed)
//     starts with one reference, owned by the caller.
//   - Passing a batch to a consuming API — Context.SendBatchBy,
//     Input.SendBatch, a mailbox handoff — transfers that reference. The
//     caller must not touch the batch afterwards unless it called Retain
//     first.
//   - OnRecvBatch callbacks borrow the batch for the duration of the call:
//     the runtime still owns it and releases it after the callback returns.
//     A vertex that forwards or stores the batch past the callback must
//     Retain it (SendBatchBy then consumes that extra reference).
//   - Release drops one reference; at zero the batch's column is reset and
//     returned to its home pool. Any slice previously obtained from the
//     batch (Col().Slice(), a Col[T].Data view) is use-after-recycle once
//     the last reference is gone — the backing array will be overwritten by
//     an unrelated batch.
//   - Dropping a batch without Release (an abort path, a closed mailbox) is
//     safe: the batch is garbage-collected instead of recycled. Only
//     double-Release and use-after-Release are bugs.
//
// The same discipline covers the frame byte pool (GetBytes/PutBytes):
// PutBytes at most once per buffer, never use a buffer after PutBytes.
//
// # Pooling rule
//
// Pools keep storage of at most 1 MiB (1<<maxBytesClass bytes) per buffer.
// PutBytes drops larger frame buffers, and a released batch whose column's
// backing array exceeds 1 MiB keeps its batch shell in the pool but drops
// the array to the garbage collector. A pool therefore never pins the
// memory of one unusually large batch, such as a join's fan-out burst, for
// the rest of the process.
package batchbuf

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Column is the storage of a batch: a uniform sequence of records, either
// typed ([]T) or boxed ([]any).
type Column interface {
	// Len returns the number of records.
	Len() int
	// Record returns record i, boxed. Typed columns box on each call; batch
	// consumers should type-assert Slice once instead.
	Record(i int) any
	// Slice returns the backing slice (a []T or []any) for a single
	// type-assertion per batch. The slice is valid only while the batch
	// holds a reference.
	Slice() any
	// Append adds a boxed record, reporting false when the record's dynamic
	// type does not match a typed column.
	Append(v any) bool
	// AppendIndex copies record i of src without boxing when both columns
	// share a type, boxing otherwise. It reports false only when the boxed
	// value cannot be stored (typed column, foreign type).
	AppendIndex(src Column, i int) bool
	// reset empties the column for reuse, keeping capacity up to the
	// pooling rule's 1 MiB and dropping a larger backing array.
	reset()
}

// Batch is a reference-counted batch of records backed by a Column.
type Batch struct {
	refs atomic.Int32
	col  Column
	home pool // nil for unpooled batches
}

// pool is the recycle target of a batch.
type pool interface {
	put(b *Batch)
	newLike(capacity int) *Batch
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return b.col.Len() }

// Record returns record i, boxed.
func (b *Batch) Record(i int) any { return b.col.Record(i) }

// Col returns the batch's column.
func (b *Batch) Col() Column { return b.col }

// Retain adds a reference and returns the batch, for chaining into a
// consuming call: ctx.SendBatchBy(0, b.Retain(), t).
func (b *Batch) Retain() *Batch {
	b.refs.Add(1)
	return b
}

// Release drops one reference; the last release resets the column and
// returns the batch to its pool. Releasing below zero panics — it means two
// owners both believed the reference was theirs.
func (b *Batch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.col.reset()
		if b.home != nil {
			b.home.put(b)
		}
	case n < 0:
		panic("batchbuf: Release of a batch with no references (double release?)")
	}
}

// NewLike returns an empty pooled batch with the same column type as b (one
// reference, owned by the caller) — the builder used when scattering a
// batch across destinations. Unpooled batches fall back to the type-keyed
// global pool when possible, else a boxed builder.
func (b *Batch) NewLike(capacity int) *Batch {
	if b.home != nil {
		return b.home.newLike(capacity)
	}
	if c, ok := b.col.(sliceColumn); ok {
		return c.poolFor().newLike(capacity)
	}
	return GetBoxed(capacity)
}

// Append adds a boxed record to the batch, reporting false on a type
// mismatch with a typed column.
func (b *Batch) Append(v any) bool { return b.col.Append(v) }

// AppendIndex copies record i of src into the batch, without boxing when
// the column types match.
func (b *Batch) AppendIndex(src *Batch, i int) bool {
	return b.col.AppendIndex(src.col, i)
}

// AppendBatch bulk-appends every record of src, without boxing when the
// column types match. It reports false only when a typed destination cannot
// store src's records.
func (b *Batch) AppendBatch(src *Batch) bool {
	if dst, ok := b.col.(bulkAppender); ok && dst.appendAll(src.col) {
		return true
	}
	for i, n := 0, src.Len(); i < n; i++ {
		if !b.col.AppendIndex(src.col, i) {
			return false
		}
	}
	return true
}

// sliceColumn lets an unpooled typed column find the global pool for its
// type (NewLike on a Wrap/Of batch).
type sliceColumn interface {
	poolFor() pool
}

// bulkAppender is the no-reflection bulk copy between same-typed columns.
type bulkAppender interface {
	appendAll(src Column) bool
}

// Col is a typed column: a plain []T operators process without boxing.
type Col[T any] struct {
	Data []T
}

// Len returns the number of records.
func (c *Col[T]) Len() int { return len(c.Data) }

// Record returns record i, boxed.
func (c *Col[T]) Record(i int) any { return c.Data[i] }

// Slice returns the []T backing slice.
func (c *Col[T]) Slice() any { return c.Data }

// Append adds a boxed record, reporting false when it is not a T.
func (c *Col[T]) Append(v any) bool {
	t, ok := v.(T)
	if !ok {
		return false
	}
	c.Data = append(c.Data, t)
	return true
}

// AppendIndex copies record i of src. Same-typed columns copy without
// boxing; otherwise the record is boxed through Record and type-asserted.
func (c *Col[T]) AppendIndex(src Column, i int) bool {
	if s, ok := src.(*Col[T]); ok {
		c.Data = append(c.Data, s.Data[i])
		return true
	}
	return c.Append(src.Record(i))
}

func (c *Col[T]) appendAll(src Column) bool {
	s, ok := src.(*Col[T])
	if !ok {
		return false
	}
	c.Data = append(c.Data, s.Data...)
	return true
}

func (c *Col[T]) reset() {
	if uintptr(cap(c.Data))*unsafe.Sizeof(*new(T)) > maxPooledBytes {
		c.Data = nil
		return
	}
	clear(c.Data)
	c.Data = c.Data[:0]
}

func (c *Col[T]) poolFor() pool { return PoolFor[T]() }

// anyCol is the boxed column: []any, accepting records of any type.
type anyCol struct {
	data []any
}

func (c *anyCol) Len() int          { return len(c.data) }
func (c *anyCol) Record(i int) any  { return c.data[i] }
func (c *anyCol) Slice() any        { return c.data }
func (c *anyCol) Append(v any) bool { c.data = append(c.data, v); return true }

func (c *anyCol) AppendIndex(src Column, i int) bool {
	c.data = append(c.data, src.Record(i))
	return true
}

func (c *anyCol) appendAll(src Column) bool {
	if s, ok := src.(*anyCol); ok {
		c.data = append(c.data, s.data...)
		return true
	}
	return false
}

func (c *anyCol) reset() {
	if uintptr(cap(c.data))*unsafe.Sizeof(any(nil)) > maxPooledBytes {
		c.data = nil
		return
	}
	clear(c.data)
	c.data = c.data[:0]
}

// Pool is a typed batch arena. The zero value is not usable; construct with
// NewPool or use the process-wide type-keyed pools via PoolFor.
type Pool[T any] struct {
	p sync.Pool
}

// NewPool returns a fresh typed batch pool.
func NewPool[T any]() *Pool[T] {
	pl := &Pool[T]{}
	pl.p.New = func() any {
		return &Batch{col: &Col[T]{}, home: pl}
	}
	return pl
}

// Get returns an empty typed batch with one reference, growing its column
// capacity to at least capacity.
func (p *Pool[T]) Get(capacity int) (*Batch, *Col[T]) {
	b := p.p.Get().(*Batch)
	b.refs.Store(1)
	col := b.col.(*Col[T])
	if cap(col.Data) < capacity {
		col.Data = make([]T, 0, capacity)
	}
	return b, col
}

func (p *Pool[T]) put(b *Batch) { p.p.Put(b) }

func (p *Pool[T]) newLike(capacity int) *Batch {
	b, _ := p.Get(capacity)
	return b
}

// typePools maps reflect.Type of T to its *Pool[T], so every producer of a
// record type shares one arena.
var typePools sync.Map

// PoolFor returns the process-wide pool for record type T.
func PoolFor[T any]() *Pool[T] {
	key := reflect.TypeFor[T]()
	if p, ok := typePools.Load(key); ok {
		return p.(*Pool[T])
	}
	p, _ := typePools.LoadOrStore(key, NewPool[T]())
	return p.(*Pool[T])
}

// boxedPool is the arena of boxed batches used by untyped paths.
var boxedPool = newBoxedPool()

type anyPool struct {
	p sync.Pool
}

func newBoxedPool() *anyPool {
	pl := &anyPool{}
	pl.p.New = func() any {
		return &Batch{col: &anyCol{}, home: pl}
	}
	return pl
}

func (p *anyPool) put(b *Batch) { p.p.Put(b) }

func (p *anyPool) newLike(capacity int) *Batch { return GetBoxed(capacity) }

// GetBoxed returns an empty boxed batch with one reference from the global
// boxed arena.
func GetBoxed(capacity int) *Batch {
	b := boxedPool.p.Get().(*Batch)
	b.refs.Store(1)
	col := b.col.(*anyCol)
	if cap(col.data) < capacity {
		col.data = make([]any, 0, capacity)
	}
	return b
}

// One returns a pooled boxed batch holding a single record.
func One(v any) *Batch {
	b := GetBoxed(1)
	b.col.(*anyCol).data = append(b.col.(*anyCol).data, v)
	return b
}

// Wrap adopts a boxed record slice as an unpooled batch (one reference;
// Release drops it for garbage collection instead of recycling). The batch
// owns the slice.
func Wrap(records []any) *Batch {
	b := &Batch{col: &anyCol{data: records}}
	b.refs.Store(1)
	return b
}

// Of adopts a typed record slice as an unpooled batch (one reference). The
// batch owns the slice.
func Of[T any](records []T) *Batch {
	b := &Batch{col: &Col[T]{Data: records}}
	b.refs.Store(1)
	return b
}

// Byte-buffer arena: size-classed pooled frame buffers for the transport
// receive path. GetBytes returns a zeroed-length buffer with capacity ≥ n;
// PutBytes recycles a buffer whose capacity matches a size class exactly
// and silently drops any other (so foreign slices are safe to offer).
const (
	minBytesClass = 8  // 1<<8 = 256 B
	maxBytesClass = 20 // 1<<20 = 1 MiB

	// maxPooledBytes is the pooling rule's bound on the storage a pool
	// keeps per buffer: frame buffers and column backing arrays alike.
	maxPooledBytes = 1 << maxBytesClass
)

var bytePools [maxBytesClass - minBytesClass + 1]sync.Pool

func bytesClass(n int) int {
	c := minBytesClass
	for n > 1<<c {
		c++
	}
	return c
}

// GetBytes returns a length-n buffer from the arena (capacity is the
// enclosing power-of-two size class). Requests beyond the largest class
// fall back to a plain allocation.
func GetBytes(n int) []byte {
	if n > 1<<maxBytesClass {
		return make([]byte, n)
	}
	c := bytesClass(n)
	if v := bytePools[c-minBytesClass].Get(); v != nil {
		return v.([]byte)[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBytes recycles a buffer previously returned by GetBytes. Buffers whose
// capacity is not an exact size class are dropped, so callers may offer any
// slice without tracking provenance. The caller must not use the buffer —
// or any view of it — after PutBytes.
func PutBytes(b []byte) {
	c := cap(b)
	if c < 1<<minBytesClass || c > maxPooledBytes || c&(c-1) != 0 {
		return
	}
	cls := bytesClass(c)
	bytePools[cls-minBytesClass].Put(b[:0:c])
}
