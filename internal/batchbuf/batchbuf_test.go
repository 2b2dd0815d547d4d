package batchbuf

import (
	"testing"
)

// TestTypedPoolRecycles checks that a released batch comes back from its
// pool, reset. sync.Pool may drop any item (the race detector drops a
// quarter of them on purpose), so the test asks for recycling at least
// once in several rounds.
func TestTypedPoolRecycles(t *testing.T) {
	p := NewPool[int64]()
	for round := 0; round < 20; round++ {
		b, col := p.Get(8)
		col.Data = append(col.Data, 1, 2, 3)
		if b.Len() != 3 {
			t.Fatalf("Len = %d, want 3", b.Len())
		}
		if got := b.Record(1).(int64); got != 2 {
			t.Fatalf("Record(1) = %d, want 2", got)
		}
		b.Release()
		b2, col2 := p.Get(4)
		if b2 == b {
			if col2.Len() != 0 {
				t.Fatalf("recycled batch not reset: %d records", col2.Len())
			}
			return
		}
	}
	t.Fatalf("pool never recycled a released batch")
}

func TestRetainRelease(t *testing.T) {
	b, col := PoolFor[string]().Get(4)
	col.Data = append(col.Data, "a")
	b.Retain()
	b.Release()
	if b.Len() != 1 {
		t.Fatalf("batch reset while a reference remained")
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
	}()
	b.Release()
}

func TestPoolForSharesArena(t *testing.T) {
	if PoolFor[int64]() != PoolFor[int64]() {
		t.Fatalf("PoolFor returned distinct pools for one type")
	}
}

func TestAppendIndexTypedNoBox(t *testing.T) {
	src := Of([]int64{10, 20, 30})
	dst := src.NewLike(4)
	if !dst.AppendIndex(src, 2) || !dst.AppendIndex(src, 0) {
		t.Fatalf("typed AppendIndex failed")
	}
	got := dst.Col().Slice().([]int64)
	if len(got) != 2 || got[0] != 30 || got[1] != 10 {
		t.Fatalf("scattered = %v, want [30 10]", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst.Col().reset()
		dst.AppendIndex(src, 1)
	})
	if allocs != 0 {
		t.Fatalf("typed AppendIndex allocates %.1f/op, want 0", allocs)
	}
}

func TestBoxedFallbacks(t *testing.T) {
	bx := GetBoxed(2)
	if !bx.Append(int64(7)) || !bx.Append("mixed") {
		t.Fatalf("boxed Append rejected a record")
	}
	typed := Of([]int64{1})
	if typed.Append("not an int64") {
		t.Fatalf("typed Append accepted a foreign type")
	}
	if !bx.AppendIndex(typed, 0) {
		t.Fatalf("boxed AppendIndex failed")
	}
	if bx.Len() != 3 || bx.Record(2).(int64) != 1 {
		t.Fatalf("boxed column contents wrong: %v", bx.Col().Slice())
	}
	bx.Release()
}

func TestAppendBatchBulk(t *testing.T) {
	src := Of([]int64{1, 2, 3})
	dst := src.NewLike(8)
	if !dst.AppendBatch(src) || !dst.AppendBatch(src) {
		t.Fatalf("AppendBatch failed")
	}
	got := dst.Col().Slice().([]int64)
	if len(got) != 6 || got[5] != 3 {
		t.Fatalf("AppendBatch = %v", got)
	}
	// Boxed destination accepts a typed source (boxing).
	bx := GetBoxed(4)
	if !bx.AppendBatch(src) || bx.Len() != 3 {
		t.Fatalf("boxed AppendBatch failed")
	}
	// Typed destination rejects a foreign-typed source.
	other := Of([]string{"x"})
	if dst.AppendBatch(other) {
		t.Fatalf("typed AppendBatch accepted foreign records")
	}
}

func TestWrapAndOneOwnership(t *testing.T) {
	w := Wrap([]any{int64(1), int64(2)})
	if w.Len() != 2 {
		t.Fatalf("Wrap lost records")
	}
	w.Release() // unpooled: just drops to GC

	one := One(int64(42))
	if one.Len() != 1 || one.Record(0).(int64) != 42 {
		t.Fatalf("One built %v", one.Col().Slice())
	}
	one.Release()
}

func TestNewLikeOnUnpooledBatch(t *testing.T) {
	src := Of([]int64{5})
	bld := src.NewLike(16)
	if _, ok := bld.Col().(*Col[int64]); !ok {
		t.Fatalf("NewLike on an Of-batch did not produce a typed builder")
	}
	bld.Release()
}

func TestByteArena(t *testing.T) {
	b := GetBytes(300)
	if len(b) != 300 || cap(b) != 512 {
		t.Fatalf("GetBytes(300): len %d cap %d, want 300/512", len(b), cap(b))
	}
	PutBytes(b)
	b2 := GetBytes(400)
	if cap(b2) != 512 {
		t.Fatalf("size class not reused: cap %d", cap(b2))
	}
	// Foreign capacities are silently dropped.
	PutBytes(make([]byte, 0, 300))
	// Oversize requests fall back to plain allocation.
	huge := GetBytes(1<<20 + 1)
	if len(huge) != 1<<20+1 {
		t.Fatalf("oversize GetBytes wrong length")
	}
	PutBytes(huge)
}

func TestColReleaseClearsData(t *testing.T) {
	type rec struct{ p *int }
	x := 7
	p := NewPool[rec]()
	b, col := p.Get(2)
	col.Data = append(col.Data, rec{p: &x})
	b.Release()
	_, col2 := p.Get(1)
	if d := col2.Data[:1]; d[0].p != nil {
		t.Fatalf("release did not clear pointerful records")
	}
}

// TestPoolDropsColumnsOverOneMiB checks the pooling rule: a released column
// whose backing array exceeds 1 MiB leaves it to the garbage collector, so
// the next batch from the pool does not inherit it.
func TestPoolDropsColumnsOverOneMiB(t *testing.T) {
	p := NewPool[int64]()
	b, col := p.Get(0)
	col.Data = make([]int64, 0, maxPooledBytes/8+1)
	b.Release()
	if _, col2 := p.Get(0); cap(col2.Data) > maxPooledBytes/8 {
		t.Fatalf("a %d-byte column came back from the pool", 8*cap(col2.Data))
	}
	bx := GetBoxed(0)
	bx.col.(*anyCol).data = make([]any, 0, maxPooledBytes/16+1)
	bx.Release()
	for i := 0; i < 100; i++ {
		b := GetBoxed(0)
		if c := cap(b.col.(*anyCol).data); c > maxPooledBytes/16 {
			t.Fatalf("a %d-byte boxed column came back from the pool", 16*c)
		}
		defer b.Release()
	}
}

// TestPoolReusesColumnsUpToOneMiB checks the other side of the rule: a
// column of at most 1 MiB goes back to its pool for reuse. sync.Pool may
// drop any item (the race detector drops a quarter of them on purpose), so
// the test asks for reuse at least once in several rounds.
func TestPoolReusesColumnsUpToOneMiB(t *testing.T) {
	p := NewPool[int64]()
	const n = maxPooledBytes / 8 // exactly 1 MiB
	for round := 0; round < 20; round++ {
		b, col := p.Get(n)
		col.Data = append(col.Data, 1)
		b.Release()
		if _, col2 := p.Get(0); cap(col2.Data) >= n {
			return
		}
	}
	t.Fatalf("a 1 MiB column was never reused")
}
