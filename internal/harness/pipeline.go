package harness

import (
	"fmt"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// PipelineOptions sizes the data-plane microbenchmark: per-record cost of a
// map→sink pipeline on one worker, the pooled typed-batch path against the
// boxed per-record path it replaced.
type PipelineOptions struct {
	Records   int // records per measured pass
	EpochSize int // records per epoch
}

// DefaultPipeline returns a laptop-scale configuration: enough records that
// per-epoch control traffic is noise, small enough to finish in seconds.
func DefaultPipeline() PipelineOptions {
	return PipelineOptions{Records: 1 << 21, EpochSize: 4096}
}

// pipeBatchMap is the typed fast path: whole []int64 columns in, one pooled
// column out, no per-record boxing.
type pipeBatchMap struct {
	ctx  *runtime.Context
	pool *batchbuf.Pool[int64]
}

func (v *pipeBatchMap) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	v.ctx.SendBy(0, msg.(int64)+1, t)
}

func (v *pipeBatchMap) OnRecvBatch(_ int, b *runtime.Batch, t ts.Timestamp) {
	data, ok := b.Col().Slice().([]int64)
	if !ok {
		for i, n := 0, b.Len(); i < n; i++ {
			v.OnRecv(0, b.Record(i), t)
		}
		return
	}
	out, col := v.pool.Get(len(data))
	for _, rec := range data {
		col.Data = append(col.Data, rec+1)
	}
	v.ctx.SendBatchBy(0, out, t)
}

func (v *pipeBatchMap) OnNotify(ts.Timestamp) {}

// pipeBatchCount consumes whole batches.
type pipeBatchCount struct{ n int64 }

func (v *pipeBatchCount) OnRecv(_ int, _ runtime.Message, _ ts.Timestamp) { v.n++ }
func (v *pipeBatchCount) OnRecvBatch(_ int, b *runtime.Batch, _ ts.Timestamp) {
	v.n += int64(b.Len())
}
func (v *pipeBatchCount) OnNotify(ts.Timestamp) {}

// pipeBoxedMap deliberately implements only the record-at-a-time Vertex
// interface, so the runtime unrolls every batch through the boxed OnRecv
// path — the pre-batching data plane this experiment measures against.
type pipeBoxedMap struct{ ctx *runtime.Context }

func (v *pipeBoxedMap) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	v.ctx.SendBy(0, msg.(int64)+1, t)
}
func (v *pipeBoxedMap) OnNotify(ts.Timestamp) {}

type pipeBoxedCount struct{ n int64 }

func (v *pipeBoxedCount) OnRecv(_ int, _ runtime.Message, _ ts.Timestamp) { v.n++ }
func (v *pipeBoxedCount) OnNotify(ts.Timestamp)                           {}

// runPipeline builds the one-worker map→sink pipeline, pushes opt.Records
// through it on the chosen path, and returns nanoseconds per record for the
// whole run (feed through final drain).
func runPipeline(opt PipelineOptions, typed bool) (float64, error) {
	cfg := runtime.Config{Processes: 1, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal}
	c, err := runtime.NewComputation(cfg)
	if err != nil {
		return 0, err
	}
	in := c.NewInput("in")
	var count func() int64
	var m runtime.StageID
	if typed {
		m = c.AddStage("map", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &pipeBatchMap{ctx: ctx, pool: batchbuf.PoolFor[int64]()}
		})
		cv := &pipeBatchCount{}
		count = func() int64 { return cv.n }
		snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return cv
		}, runtime.Pinned(0))
		c.Connect(in.Stage(), 0, m, nil, nil)
		c.Connect(m, 0, snk, nil, nil)
	} else {
		m = c.AddStage("map", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &pipeBoxedMap{ctx: ctx}
		})
		cv := &pipeBoxedCount{}
		count = func() int64 { return cv.n }
		snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return cv
		}, runtime.Pinned(0))
		c.Connect(in.Stage(), 0, m, nil, nil)
		c.Connect(m, 0, snk, nil, nil)
	}
	if err := c.Start(); err != nil {
		return 0, err
	}
	pool := batchbuf.PoolFor[int64]()
	start := time.Now()
	for sent := 0; sent < opt.Records; {
		n := opt.EpochSize
		if opt.Records-sent < n {
			n = opt.Records - sent
		}
		if typed {
			b, col := pool.Get(n)
			for i := 0; i < n; i++ {
				col.Data = append(col.Data, int64(i))
			}
			in.SendBatch(b)
		} else {
			recs := make([]runtime.Message, n)
			for i := range recs {
				recs[i] = int64(i)
			}
			in.Send(recs...)
		}
		in.Advance()
		sent += n
	}
	in.Close()
	if err := c.Join(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if got := count(); got != int64(opt.Records) {
		return 0, fmt.Errorf("pipeline: sink saw %d records, want %d", got, opt.Records)
	}
	return float64(elapsed.Nanoseconds()) / float64(opt.Records), nil
}

// Pipeline benchmarks the record data plane end to end: the pooled
// typed-batch path (typed columns, vectorized exchange, pooled frames)
// against the boxed per-record path the same wire format supports. The
// boxed column is the live "before" — it is the old per-record interface
// path still exercised by untyped vertices; the committed pre-PR seed
// numbers are in bench/BENCH_pipeline_before.txt.
func Pipeline(opt PipelineOptions) (*Report, error) {
	rep := &Report{
		ID:      "pipeline",
		Title:   "record data plane: pooled typed batches vs boxed per-record (§2.3)",
		Headers: []string{"path", "records", "epoch", "ns/record", "speedup"},
	}
	typedNS, err := runPipeline(opt, true)
	if err != nil {
		return nil, err
	}
	boxedNS, err := runPipeline(opt, false)
	if err != nil {
		return nil, err
	}
	speedup := boxedNS / typedNS
	rep.AddRow("typed-batch", fmt.Sprint(opt.Records), fmt.Sprint(opt.EpochSize),
		fmt.Sprintf("%.1f", typedNS), fmt.Sprintf("%.1fx", speedup))
	rep.AddRow("boxed", fmt.Sprint(opt.Records), fmt.Sprint(opt.EpochSize),
		fmt.Sprintf("%.1f", boxedNS), "1.0x")
	rep.Notes = append(rep.Notes,
		"boxed = the per-record interface path (the 'before' column); typed-batch = pooled []T columns end to end (the 'after' column)",
		"committed pre-PR baseline for BenchmarkPipelineRecords is bench/BENCH_pipeline_before.txt (471-509 ns/record, 3 allocs/record)",
		fmt.Sprintf("acceptance: typed path ≥5x the committed baseline; measured typed-vs-boxed speedup %.1fx", speedup),
	)
	return rep, nil
}
