package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/graphalgo"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/serve"
	"naiad/internal/supervise"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// stream-count: supervised streaming with barrier cuts. Zipf keys flow
// through Supervisor.OnNext → lib.Exchange → a running per-key count →
// lib.Sink → serve.TableSink. Phase 1 is an open loop of small epochs on
// a fixed schedule (latency); phase 2 is a closed loop of large epochs
// with a bounded number outstanding (throughput).
const (
	streamKeys        = 100_000
	streamZipf        = 1.2
	streamCutEvery    = 100
	p1Records         = 400
	p1Interval        = 4 * time.Millisecond
	p1Window          = 250 // epochs in one open-loop segment (1 s), each a window: see windowedMS
	p2Records         = 4000
	p2Outstanding     = 4
	p2JobEpochs       = 100
	streamRoundSetups = 4 // set-up trials after each measured round
	// warmEpochs are the preload and round 0, left out of every figure.
	warmEpochs = 1 + p1Window + p2JobEpochs
)

// runningCount is the benchmark's stateful vertex: a running count per key
// over every record ever received. At each epoch's notification it emits
// (key, count) for the keys the epoch touched, as one typed batch. State
// is checkpointed through runtime.Checkpointer, so barrier cuts carry it.
type runningCount struct {
	ctx     *runtime.Context
	counts  map[int64]int64
	pending map[int64][]int64 // epoch → keys received, not yet applied
	seen    map[int64]struct{}
}

func newRunningCount(ctx *runtime.Context) runtime.Vertex {
	return &runningCount{ctx: ctx, counts: make(map[int64]int64),
		pending: make(map[int64][]int64), seen: make(map[int64]struct{})}
}

func (v *runningCount) keys(t ts.Timestamp) []int64 {
	p, ok := v.pending[t.Epoch]
	if !ok {
		v.ctx.NotifyAt(t)
	}
	return p
}

func (v *runningCount) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	v.pending[t.Epoch] = append(v.keys(t), msg.(int64))
}

func (v *runningCount) OnRecvBatch(_ int, b *runtime.Batch, t ts.Timestamp) {
	p := v.keys(t)
	if ks, ok := b.Col().Slice().([]int64); ok {
		p = append(p, ks...)
	} else {
		for i := 0; i < b.Len(); i++ {
			p = append(p, b.Record(i).(int64))
		}
	}
	v.pending[t.Epoch] = p
}

func (v *runningCount) OnNotify(t ts.Timestamp) {
	ks := v.pending[t.Epoch]
	delete(v.pending, t.Epoch)
	for _, k := range ks {
		v.counts[k]++
	}
	out, col := batchbuf.PoolFor[lib.Pair[int64, int64]]().Get(len(ks))
	clear(v.seen)
	for _, k := range ks {
		if _, dup := v.seen[k]; dup {
			continue
		}
		v.seen[k] = struct{}{}
		col.Data = append(col.Data, lib.KV(k, v.counts[k]))
	}
	v.ctx.SendBatchBy(0, out, t)
}

func (v *runningCount) Checkpoint(enc *codec.Encoder) {
	enc.PutUint32(uint32(len(v.counts)))
	for k, c := range v.counts {
		enc.PutInt64(k)
		enc.PutInt64(c)
	}
	enc.PutUint32(uint32(len(v.pending)))
	for e, ks := range v.pending {
		enc.PutInt64(e)
		enc.PutUint32(uint32(len(ks)))
		for _, k := range ks {
			enc.PutInt64(k)
		}
	}
}

func (v *runningCount) Restore(dec *codec.Decoder) {
	v.counts = make(map[int64]int64)
	for n := dec.Uint32(); n > 0; n-- {
		k := dec.Int64()
		v.counts[k] = dec.Int64()
	}
	v.pending = make(map[int64][]int64)
	for n := dec.Uint32(); n > 0; n-- {
		e := dec.Int64()
		ks := make([]int64, dec.Uint32())
		for i := range ks {
			ks[i] = dec.Int64()
		}
		v.pending[e] = ks
	}
}

// pairTableDecode maps one canonical Pair[int64,int64] record to a table
// entry: the key in decimal, the count in decimal.
func pairTableDecode(rec []byte) (string, []byte, error) {
	if len(rec) != 16 {
		return "", nil, fmt.Errorf("pair record of %d bytes", len(rec))
	}
	k := int64(binary.LittleEndian.Uint64(rec[:8]))
	c := int64(binary.LittleEndian.Uint64(rec[8:]))
	return strconv.FormatInt(k, 10), strconv.AppendInt(nil, c, 10), nil
}

// streamPipeline is one supervised stream-count dataflow and the handles
// the workload reads.
type streamPipeline struct {
	sup   *supervise.Supervisor
	view  *serve.TableSink
	sink  *sinkStore
	snaps *snapStore
	mu    sync.Mutex
	build *supervise.Build // the latest incarnation
}

func (p *streamPipeline) current() *supervise.Build {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.build
}

// newStreamPipeline builds and starts the supervised dataflow: the set-up
// the setup_s metric times.
func newStreamPipeline(seed int64, ly *layers) (*streamPipeline, error) {
	p := &streamPipeline{view: serve.NewTableSink(pairTableDecode)}
	p.sink = newSinkStore(p.view, ly != nil)
	var store supervise.SnapshotStore = supervise.NewMemStore(3)
	if ly != nil {
		p.snaps = &snapStore{inner: store}
		store = p.snaps
	}
	factory := func() (*supervise.Build, error) {
		tcp, err := transport.NewTCPLoopback(2)
		if err != nil {
			return nil, err
		}
		cfg := runtime.Config{Processes: 2, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal, Transport: tcp}
		var cs *codecStats
		if ly != nil {
			cfg.Transport = wrapTransport(tcp, &ly.trans, ly.spans)
			cfg.Tracer = ly.tracer
			cs = &ly.codec
		}
		s, err := lib.NewScope(cfg)
		if err != nil {
			tcp.Close()
			return nil, err
		}
		in, keys := lib.NewInput[int64](s, "Input", wrapCodec(codec.Int64(), cs))
		ex := lib.Exchange(keys, hash64)
		cnt := s.C.AddStage("RunningCount", graph.RoleNormal, 0, newRunningCount)
		s.C.Connect(ex.Stage(), 0, cnt, nil, ex.Codec())
		counts := lib.StreamOf[lib.Pair[int64, int64]](s, cnt, 0, wrapCodec(graphalgo.PairCodec(), cs), 0)
		b := &supervise.Build{
			Comp:   s.C,
			Inputs: map[string]*runtime.Input{"in": in.Raw()},
			Probe:  s.C.NewProbe(lib.Sink(counts, p.sink)),
		}
		p.mu.Lock()
		p.build = b
		p.mu.Unlock()
		return b, nil
	}
	sup, err := supervise.New(supervise.Config{
		Factory:         factory,
		Store:           store,
		CheckpointEvery: streamCutEvery,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	p.sup = sup
	return p, nil
}

// finish closes the input and waits for the supervised computation.
func (p *streamPipeline) finish() error {
	if err := p.sup.CloseInput("in"); err != nil {
		return fmt.Errorf("close input: %w", err)
	}
	return p.sup.Wait()
}

// epochWatcher is the one probe-watching goroutine: it records when each
// epoch is first seen committed at the sink.
type epochWatcher struct {
	stopAt atomic.Int64 // epochs at or past this are not recorded
	mu     sync.Mutex
	seen   []time.Time
	err    error
	done   chan struct{}
}

func watchEpochs(probe *runtime.Probe) *epochWatcher {
	w := &epochWatcher{done: make(chan struct{})}
	w.stopAt.Store(math.MaxInt64)
	go func() {
		defer close(w.done)
		for e := int64(0); e < w.stopAt.Load(); e++ {
			err := probe.WaitForErr(e)
			now := time.Now()
			if e >= w.stopAt.Load() {
				return
			}
			w.mu.Lock()
			if err != nil {
				w.err = err
				w.mu.Unlock()
				return
			}
			w.seen = append(w.seen, now)
			w.mu.Unlock()
		}
	}()
	return w
}

// stop ends the watcher after epoch n-1; the caller has already waited for
// that epoch and then lets the computation finish, which releases a
// watcher blocked on epoch n.
func (w *epochWatcher) stop(n int64) { w.stopAt.Store(n) }

func (w *epochWatcher) at(e int64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e < 0 || e >= int64(len(w.seen)) {
		return time.Time{}, false
	}
	return w.seen[e], true
}

func runStream(seed int64, seconds float64, ly *layers) (*outcome, error) {
	o := &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
	heap := startHeapSampler()
	defer heap.peakMB()

	p, err := newStreamPipeline(seed, ly)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var setups []float64
	setupTrial := func() (func() error, error) {
		q, err := newStreamPipeline(seed, nil)
		if err != nil {
			return nil, err
		}
		return q.finish, nil
	}

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, streamZipf, 1, streamKeys-1)
	boxed := make([]runtime.Message, streamKeys)
	for k := range boxed {
		boxed[k] = int64(k)
	}
	tally := make([]int64, streamKeys)
	batch := make([]runtime.Message, 0, p2Records)
	gen := func(n int) []runtime.Message {
		batch = batch[:0]
		for i := 0; i < n; i++ {
			k := zipf.Uint64()
			tally[k]++
			batch = append(batch, boxed[k])
		}
		return batch
	}

	w := watchEpochs(p.current().Probe)
	var g0 goRuntime
	if ly != nil {
		g0 = readGoRuntime()
	}

	// Epoch 0 preloads every key once, so the running count, and with it
	// every cut, holds the whole key space from the first measured epoch
	// on: the cost of a cut does not grow during the run.
	var due, fed, feedStart []time.Time
	t0 := time.Now()
	if err := p.sup.OnNext("in", boxed...); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	for k := range tally {
		tally[k]++
	}
	due, feedStart, fed = append(due, t0), append(feedStart, t0), append(fed, time.Now())
	if err := p.current().Probe.WaitForErr(0); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	// Rounds until the run's time is up: each round is one open-loop
	// segment (phase 1: p1Window epochs of 400 records, one due every
	// 4 ms), drained, then one closed-loop job (phase 2: 100 epochs of
	// 4000 records, at most 4 outstanding, one cut). Interleaving the two
	// phases spreads each over the whole run, so a stretch of host
	// contention weighs on both alike. Round 0 warms up and is not measured.
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var jobs, cpu, heaps []float64 // per measured round: job time, CPU µs per record, peak live heap
	open := []bool{false}          // per epoch: fed open-loop in a measured round
	next := int64(1)
	var recs int64 = streamKeys
	var round time.Duration
	for r := 0; r < 2 || !time.Now().Add(round).After(end); r++ {
		r0 := time.Now()
		c0 := cpuSeconds()
		heap.takeMB()
		start := r0.Add(time.Millisecond)
		for i := 0; i < p1Window; i++ {
			d := start.Add(time.Duration(i) * p1Interval)
			sleepUntil(d)
			msgs := gen(p1Records)
			t0 := time.Now()
			if err := p.sup.OnNext("in", msgs...); err != nil {
				return nil, fmt.Errorf("feed epoch %d: %w", next, err)
			}
			due, feedStart, fed = append(due, d), append(feedStart, t0), append(fed, time.Now())
			open = append(open, r > 0)
			next++
		}
		recs += p1Window * p1Records
		if err := p.current().Probe.WaitForErr(next - 1); err != nil {
			return nil, fmt.Errorf("segment drain: %w", err)
		}

		j0 := time.Now()
		first := next
		for i := 0; i < p2JobEpochs; i++ {
			if next-first >= p2Outstanding {
				if err := p.current().Probe.WaitForErr(next - p2Outstanding); err != nil {
					return nil, fmt.Errorf("job wait: %w", err)
				}
			}
			msgs := gen(p2Records)
			d := time.Now()
			if err := p.sup.OnNext("in", msgs...); err != nil {
				return nil, fmt.Errorf("feed epoch %d: %w", next, err)
			}
			due, feedStart, fed = append(due, d), append(feedStart, d), append(fed, time.Now())
			open = append(open, false)
			next++
		}
		recs += p2JobEpochs * p2Records
		if err := p.current().Probe.WaitForErr(next - 1); err != nil {
			return nil, fmt.Errorf("job drain: %w", err)
		}
		if r > 0 {
			jobs = append(jobs, time.Since(j0).Seconds())
			cpu = append(cpu, (cpuSeconds()-c0)*1e6/(p1Window*p1Records+p2JobEpochs*p2Records))
			heaps = append(heaps, heap.takeMB())
			if err := trySetups(&setups, streamRoundSetups, setupTrial); err != nil {
				return nil, err
			}
		}
		round = time.Since(r0)
	}
	total := next
	w.stop(total)
	comp := p.current().Comp
	if err := p.finish(); err != nil {
		o.problem("supervised computation failed: %v", err)
	}
	<-w.done
	heap.peakMB()
	o.e2e["heap_peak_mb"] = median(heaps)

	// Operations are epochs; an epoch fails if it was never seen committed
	// or did not commit exactly once.
	o.attempted = total
	var lat, ack []time.Duration
	for e := int64(0); e < total; e++ {
		seen, ok := w.at(e)
		commits := p.sink.count(e)
		if !ok || commits != 1 {
			o.failed++
			o.problem("epoch %d: seen=%v commits=%d", e, ok, commits)
			continue
		}
		if open[e] {
			lat = append(lat, seen.Sub(due[e]))
			ack = append(ack, fed[e].Sub(due[e]))
		}
	}
	if w.err != nil {
		o.problem("probe: %v", w.err)
	}
	var bad int64
	for k, want := range tally {
		val, _, ok := p.view.Lookup(strconv.Itoa(k))
		got := int64(-1)
		if ok {
			got, _ = strconv.ParseInt(string(val), 10, 64)
		}
		if (want == 0 && ok) || (want > 0 && got != want) {
			bad++
			if bad <= 5 {
				o.problem("key %d: count %d, want %d", k, got, want)
			}
		}
	}
	o.failed = min(o.attempted, o.failed+bad)
	if f := p.view.Frontier(); f != ts.Root(total) {
		o.problem("view frontier %v, want %v", f, ts.Root(total))
	}
	if len(lat) == 0 || len(jobs) == 0 {
		return nil, fmt.Errorf("run too short: %d measured epochs, %d jobs", len(lat), len(jobs))
	}
	fmt.Fprintf(os.Stderr, "phase-1 epoch latency (ms): p50 %.3f p90 %.3f p95 %.3f p97 %.3f p99 %.3f\n",
		quantileMS(lat, 0.5), quantileMS(lat, 0.9), quantileMS(lat, 0.95), quantileMS(lat, 0.97), quantileMS(lat, 0.99))
	o.e2e["latency_p50_ms"] = windowedMS("latency p50", lat, p1Window, 0.5)
	o.e2e["latency_p95_ms"] = windowedMS("latency p95", lat, p1Window, 0.95)
	o.e2e["ack_p50_ms"] = windowedMS("ack p50", ack, p1Window, 0.5)
	o.e2e["ack_p95_ms"] = windowedMS("ack p95", ack, p1Window, 0.95)
	logValues("jobs (s)", jobs)
	logValues("round CPU (us/rec)", cpu)
	o.e2e["job_s"] = calm(jobs)
	o.e2e["cpu_us_per_rec"] = median(cpu)
	o.e2e["throughput_rps"] = p2JobEpochs * p2Records / o.e2e["job_s"]
	o.setup(setups)

	if ly != nil {
		streamLayers(ly, p, comp, o, w, due, feedStart, fed, open, recs, g0)
	}
	return o, nil
}

// streamLayers derives the per-layer metrics of a traced stream-count run
// and records each epoch's latency split as spans: sink.seal (due →
// Commit entered), sink.commit (Commit call), progress.release (Commit
// returned → probe seen).
func streamLayers(ly *layers, p *streamPipeline, comp *runtime.Computation, o *outcome, w *epochWatcher,
	due, feedStart, fed []time.Time, open []bool, recs int64, g0 goRuntime) {
	total := int64(len(due))
	m := o.layer
	var seal, release, late []time.Duration
	var feed, commit []float64
	for e := int64(0); e < total; e++ {
		seen, ok := w.at(e)
		enter, okE := p.sink.enter[e]
		exit := p.sink.exit[e]
		root := ly.spans.add("epoch", 0, e, due[e], seen)
		ly.spans.add("input.feed", root, e, feedStart[e], fed[e])
		if ok && okE {
			ly.spans.add("sink.seal", root, e, due[e], enter)
			ly.spans.add("sink.commit", root, e, enter, exit)
			ly.spans.add("progress.release", root, e, exit, seen)
		}
		if e < warmEpochs || !ok || !okE {
			continue
		}
		feed = append(feed, float64(fed[e].Sub(feedStart[e]))/1e3)
		commit = append(commit, float64(exit.Sub(enter))/1e3)
		if open[e] {
			seal = append(seal, enter.Sub(due[e]))
			release = append(release, seen.Sub(exit))
			late = append(late, feedStart[e].Sub(due[e]))
		}
	}
	m["input.feed_us_p50"] = median(feed)
	m["gen.late_ms"] = quantileMS(late, 0.95)
	m["sink.seal_ms_p50"] = quantileMS(seal, 0.5)
	m["sink.seal_ms_p95"] = quantileMS(seal, 0.95)
	m["sink.commit_us_p50"] = median(commit)
	m["progress.release_ms_p50"] = quantileMS(release, 0.5)
	m["progress.release_ms_p95"] = quantileMS(release, 0.95)
	p.sink.mu.Lock()
	m["sink.batch_kb"] = float64(p.sink.bytes) / 1e3 / float64(len(p.sink.enter))
	var commits int
	for _, c := range p.sink.commits {
		commits += c
	}
	p.sink.mu.Unlock()
	m["sink.commits"] = float64(commits)

	rec := p.sup.Recovery()
	m["supervise.cuts"] = float64(rec.Cuts)
	m["supervise.cut_aborts"] = float64(rec.CutAborts)
	var saveUS, lagMS []float64
	var cutBytes int64
	p.snaps.mu.Lock()
	for _, s := range p.snaps.saves {
		saveUS = append(saveUS, float64(s.t1.Sub(s.t0))/1e3)
		cutBytes += int64(s.bytes)
		// A cut at boundary b holds epochs < b; it was triggered by feeding
		// epoch b-1, so its lag runs from that epoch's due time.
		if b := s.epoch - 1; b >= 0 && b < int64(len(due)) {
			lagMS = append(lagMS, ms(s.t0.Sub(due[b])))
		}
		ly.spans.add("supervise.save", 0, s.epoch, s.t0, s.t1)
	}
	n := len(p.snaps.saves)
	p.snaps.mu.Unlock()
	if n > 0 {
		m["supervise.cut_kb"] = float64(cutBytes) / 1e3 / float64(n)
		m["supervise.save_us_p50"] = median(saveUS)
		m["supervise.cut_lag_ms_p50"] = median(lagMS)
	}

	ly.countStages(comp)
	ly.stageMetrics(total, total, m)
	ly.codecMetrics(m)
	ly.codecCheck(o)
	ly.transportMetrics(total, total, 2, m)
	goMetrics(g0, readGoRuntime(), recs, m)
	m["trace.residual_frac"] = ly.spans.residual("epoch")
}
