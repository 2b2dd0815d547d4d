package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"naiad/internal/codec"
	"naiad/internal/graphalgo"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/serve"
	"naiad/internal/transport"
)

// serve-rw: HTTP writes next to read-your-writes reads through the front
// door. One flow routes Decode → lib.Count → lib.Sink → serve.TableSink,
// and the TableSink is the flow's view. A writer connection sends one
// 64-record request every 2 ms (open loop); a reader connection reads one
// key of each acknowledged request at the ack's epoch. Phase 2 is a closed
// loop of back-to-back requests in jobs, each ending in one such read.
const (
	serveKeys         = 10_000
	serveZipf         = 1.2
	serveBatch        = 64
	serveInterval     = 2 * time.Millisecond
	serveWindow       = 500 // writes in one open-loop segment (1 s), each a window: see windowedMS
	serveJobRequests  = 100
	serveRoundJobs    = 8
	serveRoundSetups  = 4 // set-up trials after each measured round
	serveFlow         = "counts"
	serveTenant       = "bench"
	serveDrainTimeout = 30 * time.Second
)

// servePipeline is one started dataflow behind a started server, with a
// writer and a reader session.
type servePipeline struct {
	comp   *runtime.Computation
	srv    *serve.Server
	view   *serve.TableSink
	tview  *tracedView
	sink   *sinkStore
	writer *serve.Client
	reader *serve.Client

	decodeNS, decodeRecs atomic.Int64
}

func decodeKey(line []byte) (runtime.Message, error) {
	return strconv.ParseInt(string(line), 10, 64)
}

// newServePipeline builds the dataflow, connects TCP, starts it, starts
// the server and dials both sessions: the set-up setup_s times.
func newServePipeline(seed int64, ly *layers) (*servePipeline, error) {
	p := &servePipeline{view: serve.NewTableSink(pairTableDecode)}
	p.sink = newSinkStore(p.view, ly != nil)
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
	counts := lib.Count(keys, wrapCodec(graphalgo.PairCodec(), cs))
	probe := s.C.NewProbe(lib.Sink(counts, p.sink))
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	p.comp = s.C
	var view serve.View = p.view
	decode := decodeKey
	if ly != nil {
		p.tview = &tracedView{inner: p.view, lookups: make(map[int64][2]time.Time)}
		view = p.tview
		decode = func(line []byte) (runtime.Message, error) {
			t0 := time.Now()
			m, err := decodeKey(line)
			p.decodeNS.Add(int64(time.Since(t0)))
			p.decodeRecs.Add(1)
			return m, err
		}
	}
	scfg := serve.DefaultConfig()
	scfg.Seed = seed
	p.srv = serve.NewServer(scfg)
	if err := p.srv.Register(serve.Flow{Name: serveFlow, Input: in.Raw(), Probe: probe, Decode: decode, View: view}); err != nil {
		return nil, err
	}
	if err := p.srv.Start(); err != nil {
		return nil, err
	}
	if p.writer, err = serve.Dial(p.srv.Addr(), serveTenant, serveFlow, serve.ClientOptions{Seed: seed}); err != nil {
		return nil, fmt.Errorf("dial writer: %w", err)
	}
	if p.reader, err = serve.Dial(p.srv.Addr(), serveTenant, serveFlow, serve.ClientOptions{Seed: seed + 1}); err != nil {
		return nil, fmt.Errorf("dial reader: %w", err)
	}
	return p, nil
}

// finish closes the sessions, shuts the server down (which seals and
// closes the flow's input) and joins the computation. The clients' idle
// connections to the stopped server are left to the HTTP transport, which
// drops each when the server closes it: closing the shared transport's idle
// connections here would also close the measured pipeline's.
func (p *servePipeline) finish() error {
	_ = p.writer.Close() // best effort: Shutdown drops the sessions anyway
	_ = p.reader.Close()
	ctx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
	defer cancel()
	if err := p.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return p.comp.Join()
}

// serveWrite is one write request and the read that checks it.
type serveWrite struct {
	due, sent, acked time.Time
	key              int64 // the request's first key, the one read back
	ok               bool  // acknowledged
	epoch            int64
	// The read of key at min_epoch = epoch.
	readStart, readEnd time.Time
	readOK             bool
	readVal            int64
	readEpoch          int64
	phase1             bool
}

func runServe(seed int64, seconds float64, ly *layers) (*outcome, error) {
	o := &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
	heap := startHeapSampler()
	defer heap.peakMB()
	p, err := newServePipeline(seed, ly)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var setups []float64
	setupTrial := func() (func() error, error) {
		q, err := newServePipeline(seed, nil)
		if err != nil {
			return nil, err
		}
		return q.finish, nil
	}

	// Requests draw their keys in order from one generator; the oracle
	// replays it rather than keeping every request's keys.
	gen := newServeKeys(seed)
	keys := make([]int64, serveBatch)
	newWrite := func(due time.Time) *serveWrite {
		gen(keys)
		return &serveWrite{due: due, key: keys[0]}
	}
	lines := make([][]byte, serveBatch)
	send := func(w *serveWrite) {
		for i, k := range keys {
			lines[i] = strconv.AppendInt(lines[i][:0], k, 10)
		}
		w.sent = time.Now()
		ack, err := p.writer.Send(lines)
		w.acked = time.Now()
		if err != nil {
			logf("write failed: %v", err)
			return
		}
		w.ok, w.epoch = true, ack.Epoch
	}
	read := func(id int, w *serveWrite) {
		if p.tview != nil {
			p.tview.current.Store(int64(id))
		}
		w.readStart = time.Now()
		val, e, err := p.reader.Read(strconv.FormatInt(w.key, 10), w.epoch)
		w.readEnd = time.Now()
		if err != nil {
			logf("read at epoch %d failed: %v", w.epoch, err)
			return
		}
		v, perr := strconv.ParseInt(val, 10, 64)
		w.readOK, w.readVal, w.readEpoch = perr == nil, v, e
	}

	var g0 goRuntime
	if ly != nil {
		g0 = readGoRuntime()
	}
	// Rounds until the run's time is up: each round is one open-loop
	// segment (phase 1: serveWindow writes, one due every 2 ms, each read
	// back by the reader on its own connection), then serveRoundJobs
	// closed-loop jobs (phase 2: serveJobRequests back-to-back requests,
	// each job ending in a read-your-writes read of its last write).
	// Interleaving the two phases spreads each over the whole run, so a
	// stretch of host contention weighs on both alike. Round 0 warms up
	// and is not measured.
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var writes []*serveWrite
	var jobs []float64       // per measured job
	var cpu, heaps []float64 // per measured round: CPU µs per record written, peak live heap
	var round time.Duration
	type ackedWrite struct {
		id int
		w  *serveWrite
	}
	for r := 0; r < 2 || !time.Now().Add(round).After(end); r++ {
		r0 := time.Now()
		c0 := cpuSeconds()
		heap.takeMB()
		acked := make(chan ackedWrite, serveWindow) // one slot per write: the writer never blocks on the reader
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			for a := range acked {
				read(a.id, a.w)
			}
		}()
		start := r0.Add(time.Millisecond)
		for i := 0; i < serveWindow; i++ {
			w := newWrite(start.Add(time.Duration(i) * serveInterval))
			w.phase1 = r > 0
			writes = append(writes, w)
			sleepUntil(w.due)
			send(w)
			if w.ok {
				acked <- ackedWrite{len(writes) - 1, w}
			}
		}
		close(acked)
		<-readerDone

		for j := 0; j < serveRoundJobs; j++ {
			j0 := time.Now()
			var lastOK *serveWrite
			lastID := 0
			for i := 0; i < serveJobRequests; i++ {
				w := newWrite(time.Now())
				writes = append(writes, w)
				send(w)
				if w.ok {
					lastOK, lastID = w, len(writes)-1
				}
			}
			if lastOK == nil {
				continue
			}
			read(lastID, lastOK)
			if r > 0 && lastOK.readOK {
				jobs = append(jobs, time.Since(j0).Seconds())
			}
		}
		if r > 0 {
			cpu = append(cpu, (cpuSeconds()-c0)*1e6/((serveWindow+serveRoundJobs*serveJobRequests)*serveBatch))
			heaps = append(heaps, heap.takeMB())
			if err := trySetups(&setups, serveRoundSetups, setupTrial); err != nil {
				return nil, err
			}
		}
		round = time.Since(r0)
	}
	snap := p.srv.Metrics().Snapshot()
	wRetries, _, _ := p.writer.Stats()
	rRetries, _, _ := p.reader.Stats()
	if err := p.finish(); err != nil {
		o.problem("teardown: %v", err)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	heap.peakMB()
	o.e2e["heap_peak_mb"] = median(heaps)

	checkServe(o, p, seed, writes, snap)
	var lat, ack []time.Duration
	for _, w := range writes {
		if !w.phase1 || !w.ok {
			continue
		}
		ack = append(ack, w.acked.Sub(w.due))
		if w.readOK {
			lat = append(lat, w.readEnd.Sub(w.due))
		}
	}
	if len(lat) == 0 || len(jobs) == 0 {
		return nil, fmt.Errorf("run too short: %d measured writes, %d jobs", len(lat), len(jobs))
	}
	o.e2e["latency_p50_ms"] = windowedMS("latency p50", lat, serveWindow, 0.5)
	o.e2e["latency_p95_ms"] = windowedMS("latency p95", lat, serveWindow, 0.95)
	o.e2e["ack_p50_ms"] = windowedMS("ack p50", ack, serveWindow, 0.5)
	o.e2e["ack_p95_ms"] = windowedMS("ack p95", ack, serveWindow, 0.95)
	logValues("jobs (s)", jobs)
	logValues("round CPU (us/rec)", cpu)
	o.e2e["job_s"] = calm(jobs)
	o.e2e["cpu_us_per_rec"] = median(cpu)
	o.e2e["throughput_rps"] = serveJobRequests * serveBatch / o.e2e["job_s"]
	o.setup(setups)
	if ly != nil {
		serveLayers(ly, p, o, writes, snap, wRetries+rRetries, g0)
	}
	return o, nil
}

// newServeKeys returns serve-rw's key generator: each call fills a request
// with Zipf keys, the same sequence for the same seed.
func newServeKeys(seed int64) func(keys []int64) {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), serveZipf, 1, serveKeys-1)
	return func(keys []int64) {
		for i := range keys {
			keys[i] = int64(zipf.Uint64())
		}
	}
}

// checkServe is serve-rw's output oracle. Each acknowledged record counts
// in its ack's epoch; lib.Count emits per-epoch counts and the table keeps
// the latest, so the final value of a key is its count in the last epoch
// that wrote it, and a read complete through epoch E sees the count in the
// last epoch ≤ E that wrote the key. Operations are writes and reads; a
// write fails when shed or rejected after the client's retries, a read
// when it errors (a timeout included) or disagrees with the oracle.
func checkServe(o *outcome, p *servePipeline, seed int64, writes []*serveWrite, snap serve.Snapshot) {
	tally := make(map[int64]map[int64]int64) // epoch → key → count
	var accepted int64
	gen := newServeKeys(seed)
	keys := make([]int64, serveBatch)
	for _, w := range writes {
		gen(keys)
		o.attempted++
		if !w.ok {
			o.failed++
			continue
		}
		o.attempted++ // its read
		if tally[w.epoch] == nil {
			tally[w.epoch] = make(map[int64]int64)
		}
		for _, k := range keys {
			tally[w.epoch][k]++
		}
		accepted += int64(len(keys))
	}
	if accepted != snap.RecordsAccepted {
		o.problem("%d records acknowledged, the server accepted %d", accepted, snap.RecordsAccepted)
	}
	byKey := make(map[int64][]int64) // key → epochs that wrote it, ascending
	epochs := make([]int64, 0, len(tally))
	for e := range tally {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		for k := range tally[e] {
			byKey[k] = append(byKey[k], e)
		}
		if c := p.sink.count(e); c != 1 {
			o.problem("epoch %d committed %d times", e, c)
		}
	}
	// asOf is the oracle's value of key k in state complete through e.
	asOf := func(k, e int64) int64 {
		es := byKey[k]
		i := sort.Search(len(es), func(i int) bool { return es[i] > e })
		if i == 0 {
			return -1
		}
		return tally[es[i-1]][k]
	}
	for _, w := range writes {
		if !w.ok {
			continue
		}
		switch {
		case w.readEnd.IsZero():
			o.attempted-- // never read: its phase-2 job read a later write
		case !w.readOK:
			o.failed++
		case w.readEpoch < w.epoch:
			o.failed++
			o.problem("read saw epoch %d before its write's epoch %d", w.readEpoch, w.epoch)
		case w.readVal != asOf(w.key, w.readEpoch):
			o.failed++
			o.problem("key %d at epoch %d read %d, want %d", w.key, w.readEpoch, w.readVal, asOf(w.key, w.readEpoch))
		}
	}
	var bad int
	for k, es := range byKey {
		want := tally[es[len(es)-1]][k]
		val, _, ok := p.view.Lookup(strconv.FormatInt(k, 10))
		got, _ := strconv.ParseInt(string(val), 10, 64)
		if !ok || got != want {
			bad++
			if bad <= 5 {
				o.problem("final key %d = %d (present %v), want %d", k, got, ok, want)
			}
		}
	}
	if n := p.view.Table().Len(); n != len(byKey) {
		o.problem("table holds %d keys, %d were written", n, len(byKey))
	}
	o.failed = min(o.attempted, o.failed+int64(bad))
}

// serveLayers derives the per-layer metrics of a traced serve-rw run and
// records each phase-1 write's visibility split as spans: serve.ack (due →
// ack received) and serve.read (the read-your-writes call), whose child
// serve.lookup is the view lookup inside it.
func serveLayers(ly *layers, p *servePipeline, o *outcome, writes []*serveWrite, snap serve.Snapshot,
	retries int64, g0 goRuntime) {
	m := o.layer
	p.tview.mu.Lock()
	lookups := p.tview.lookups
	p.tview.mu.Unlock()
	var feed []float64
	var late, wait, lookup []time.Duration
	epochDue := make(map[int64]time.Time) // epoch → earliest due write in it
	var ops int64
	for id, w := range writes {
		if !w.ok {
			continue
		}
		ops++
		if d, ok := epochDue[w.epoch]; !ok || w.due.Before(d) {
			epochDue[w.epoch] = w.due
		}
		if w.readEnd.IsZero() {
			continue
		}
		root := ly.spans.add("write", 0, int64(id), w.due, w.readEnd)
		ly.spans.add("serve.ack", root, int64(id), w.due, w.acked)
		ly.spans.add("client.send", root, int64(id), w.sent, w.acked)
		ly.spans.add("client.read_queue", root, int64(id), w.acked, w.readStart)
		rd := ly.spans.add("serve.read", root, int64(id), w.readStart, w.readEnd)
		lk, hasLookup := lookups[int64(id)]
		if hasLookup {
			ly.spans.add("serve.lookup", rd, int64(id), lk[0], lk[1])
		}
		if !w.phase1 {
			continue
		}
		feed = append(feed, float64(w.acked.Sub(w.sent))/1e3)
		late = append(late, w.sent.Sub(w.due))
		if hasLookup {
			wait = append(wait, w.readEnd.Sub(w.readStart)-lk[1].Sub(lk[0]))
			lookup = append(lookup, lk[1].Sub(lk[0]))
		}
	}
	m["input.feed_us_p50"] = median(feed)
	m["gen.late_ms"] = quantileMS(late, 0.95)
	m["serve.read_wait_ms_p50"] = quantileMS(wait, 0.5)
	m["serve.lookup_us_p50"] = quantileMS(lookup, 0.5) * 1e3
	if n := p.decodeRecs.Load(); n > 0 {
		m["serve.decode_ns_per_rec"] = float64(p.decodeNS.Load()) / float64(n)
	}
	if snap.EpochsSealed > 0 {
		m["serve.records_per_epoch"] = float64(snap.RecordsAccepted) / float64(snap.EpochsSealed)
	}
	m["serve.shed"] = float64(snap.RecordsShed)
	m["serve.delayed"] = float64(snap.DelayedRequests)
	m["serve.read_timeouts"] = float64(snap.ReadTimeouts)
	m["serve.client_retries"] = float64(retries)

	var seal, commit []float64
	var commits int
	p.sink.mu.Lock()
	for e, enter := range p.sink.enter {
		commit = append(commit, float64(p.sink.exit[e].Sub(enter))/1e3)
		if d, ok := epochDue[e]; ok {
			seal = append(seal, ms(enter.Sub(d)))
		}
	}
	for _, c := range p.sink.commits {
		commits += c
	}
	if len(p.sink.enter) > 0 {
		m["sink.batch_kb"] = float64(p.sink.bytes) / 1e3 / float64(len(p.sink.enter))
	}
	p.sink.mu.Unlock()
	m["sink.seal_ms_p50"] = quantile(seal, 0.5)
	m["sink.seal_ms_p95"] = quantile(seal, 0.95)
	m["sink.commit_us_p50"] = median(commit)
	m["sink.commits"] = float64(commits)

	epochs := max(snap.EpochsSealed, 1)
	ly.countStages(p.comp)
	ly.stageMetrics(ops, epochs, m)
	ly.codecMetrics(m)
	ly.codecCheck(o)
	ly.transportMetrics(ops, epochs, 2, m)
	goMetrics(g0, readGoRuntime(), snap.RecordsAccepted, m)
	m["trace.residual_frac"] = ly.spans.residual("write")
}
