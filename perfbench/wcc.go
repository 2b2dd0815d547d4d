package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"naiad/internal/graph"
	"naiad/internal/graphalgo"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
	"naiad/internal/workload"
)

// wcc-batch: weakly connected components (graphalgo.BuildWCC) on a
// power-law graph, fed in one epoch and run to convergence, one fresh
// computation per job. The edges are loaded through an exchange on their
// source and the labels are gathered at worker 0, both over typed codecs.
const (
	wccNodes     = 100_000
	wccEdges     = 400_000
	wccExponent  = 1.5
	wccMaxIters  = 1_000_000
	wccJobSetups = 8 // set-up trials after each measured job
)

type label = lib.Pair[int64, int64]

// labelCollector gathers every label improvement at one vertex and keeps
// the minimum per node: the job's output as the client receives it. It
// also notes when each node was first labelled and when its label last
// improved (the final label, since improvements only decrease).
type labelCollector struct {
	labels map[int64]nodeLabel
}

type nodeLabel struct {
	label       int64
	first, last time.Time
}

func (c *labelCollector) add(p label, now time.Time) {
	cur, ok := c.labels[p.Key]
	switch {
	case !ok:
		c.labels[p.Key] = nodeLabel{label: p.Val, first: now, last: now}
	case p.Val < cur.label:
		cur.label, cur.last = p.Val, now
		c.labels[p.Key] = cur
	}
}

func (c *labelCollector) OnRecv(_ int, msg runtime.Message, _ ts.Timestamp) {
	c.add(msg.(label), time.Now())
}

func (c *labelCollector) OnRecvBatch(_ int, b *runtime.Batch, _ ts.Timestamp) {
	now := time.Now()
	if ps, ok := b.Col().Slice().([]label); ok {
		for _, p := range ps {
			c.add(p, now)
		}
		return
	}
	for i := 0; i < b.Len(); i++ {
		c.add(b.Record(i).(label), now)
	}
}

func (c *labelCollector) OnNotify(ts.Timestamp) {}

// wccJob is one built and started WCC computation.
type wccJob struct {
	comp  *runtime.Computation
	in    *lib.Input[workload.Edge]
	probe *runtime.Probe
	out   *labelCollector
}

// newWCCJob builds the dataflow, connects TCP and starts it: the set-up
// setup_s times.
func newWCCJob(ly *layers) (*wccJob, error) {
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
	in, edges := lib.NewInput[workload.Edge](s, "Input", wrapCodec(graphalgo.EdgeCodec(), cs))
	loaded := lib.Exchange(edges, func(e workload.Edge) uint64 { return hash64(e.Src) })
	labels := graphalgo.BuildWCC(s, loaded, wccMaxIters)
	j := &wccJob{comp: s.C, in: in, out: &labelCollector{labels: make(map[int64]nodeLabel, wccNodes)}}
	st := s.C.AddStage("Collect", graph.RoleNormal, 0,
		func(*runtime.Context) runtime.Vertex { return j.out }, runtime.Pinned(0))
	part, bpart := runtime.TypedPartitioner(func(label) uint64 { return 0 })
	s.C.ConnectBatch(labels.Stage(), 0, st, part, bpart, wrapCodec(graphalgo.PairCodec(), cs))
	j.probe = s.C.NewProbe(st)
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	return j, nil
}

func runWCC(seed int64, seconds float64, ly *layers) (*outcome, error) {
	o := &outcome{e2e: make(map[string]float64), layer: make(map[string]float64), dataBytes: make(map[int]int64)}
	heap := startHeapSampler()
	defer heap.peakMB()
	var setups []float64
	setupTrial := func() (func() error, error) {
		j, err := newWCCJob(nil)
		if err != nil {
			return nil, err
		}
		return func() error {
			j.in.Close()
			return j.comp.Join()
		}, nil
	}

	var g0 goRuntime
	if ly != nil {
		g0 = readGoRuntime()
	}
	var jobs, cpu, refs, heaps, lat50, lat95, ack50, ack95, sends []float64
	var traced int64
	var runtimeBytes int64
	start := time.Now()
	last := 0.0
	for n := 0; n < 2 || time.Since(start).Seconds()+last <= seconds; n++ {
		// Each job runs on its own graph: the dataflow's work varies from
		// graph to graph, so a run reports the median over many graphs.
		edges := workload.PowerLawGraph(seed<<20+int64(n), wccNodes, wccEdges, wccExponent)
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].Src != edges[b].Src {
				return edges[a].Src < edges[b].Src
			}
			return edges[a].Dst < edges[b].Dst
		})
		r0 := time.Now()
		want := workload.ExpectedWCC(edges)
		refs = append(refs, time.Since(r0).Seconds())
		j, err := newWCCJob(ly)
		if err != nil {
			return nil, fmt.Errorf("job %d setup: %w", n, err)
		}
		heap.takeMB()
		c0 := cpuSeconds()
		t0 := time.Now()
		j.in.Send(edges...)
		j.in.Close()
		t1 := time.Now()
		perr := j.probe.WaitForErr(0)
		t2 := time.Now()
		jerr := j.comp.Join()
		t3 := time.Now()
		jobCPU := cpuSeconds() - c0
		last = t3.Sub(t0).Seconds()
		jobHeap := heap.takeMB()
		fmt.Fprintf(os.Stderr, "wcc job %d: %.3fs data %d bytes\n", n, last, j.comp.Metrics().DataBytes)
		o.attempted++
		if perr != nil || jerr != nil {
			o.failed++
			o.problem("job %d: probe %v, join %v", n, perr, jerr)
			continue
		}
		// A job with wrong labels is a failure, but its times are still
		// measured: the run reports them with correct=false.
		if bad := diffLabels(j.out.labels, want); bad != "" {
			o.failed++
			o.problem("job %d: %s", n, bad)
		}
		o.dataBytes[n] = j.comp.Metrics().DataBytes
		if ly != nil {
			traced++
			runtimeBytes += j.comp.Metrics().DataBytes
			root := ly.spans.add("job", 0, int64(n), t0, t3)
			ly.spans.add("input.send", root, int64(n), t0, t1)
			ly.spans.add("dataflow", root, int64(n), t1, t2)
			ly.spans.add("join", root, int64(n), t2, t3)
			ly.countStages(j.comp)
		}
		if n == 0 {
			continue // warm-up job
		}
		jobs = append(jobs, last)
		cpu = append(cpu, jobCPU*1e6/wccEdges)
		if err := trySetups(&setups, wccJobSetups, setupTrial); err != nil {
			return nil, err
		}
		heaps = append(heaps, jobHeap)
		var firsts, finals []float64
		for _, l := range j.out.labels {
			firsts = append(firsts, ms(l.first.Sub(t0)))
			finals = append(finals, ms(l.last.Sub(t0)))
		}
		lat50 = append(lat50, quantile(finals, 0.5))
		lat95 = append(lat95, quantile(finals, 0.95))
		ack50 = append(ack50, quantile(firsts, 0.5))
		ack95 = append(ack95, quantile(firsts, 0.95))
		sends = append(sends, float64(t1.Sub(t0))/1e3)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no measured WCC job completed (%d attempted)", o.attempted)
	}
	logValues("final-label p50 per job (ms)", lat50)
	logValues("job CPU (us/edge)", cpu)
	o.e2e["latency_p50_ms"] = calm(lat50)
	o.e2e["latency_p95_ms"] = calm(lat95)
	o.e2e["ack_p50_ms"] = calm(ack50)
	o.e2e["ack_p95_ms"] = calm(ack95)
	o.e2e["job_s"] = calm(jobs)
	o.e2e["cpu_us_per_rec"] = median(cpu)
	o.e2e["heap_peak_mb"] = median(heaps)
	o.e2e["throughput_rps"] = wccEdges / o.e2e["job_s"]
	o.setup(setups)

	if ly != nil {
		m := o.layer
		if wrapperBytes := ly.trans.bytes[0].Load(); wrapperBytes != runtimeBytes {
			o.problem("transport wrapper counted %d data bytes, the computations %d", wrapperBytes, runtimeBytes)
		}
		ly.codecCheck(o)
		m["wcc.reference_s"] = median(refs)
		m["input.feed_us_p50"] = median(sends)
		ly.codecMetrics(m)
		ly.transportMetrics(traced, traced, 2, m)
		ly.stageMetrics(traced, traced, m)
		goMetrics(g0, readGoRuntime(), traced*wccEdges, m)
		m["trace.residual_frac"] = ly.spans.residual("job")
	}
	return o, nil
}

// diffLabels compares the job's labels with the sequential reference and
// describes the first difference ("" when equal).
func diffLabels(got map[int64]nodeLabel, want map[int64]int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d labelled nodes, want %d", len(got), len(want))
	}
	for n, w := range want {
		if g, ok := got[n]; !ok || g.label != w {
			return fmt.Sprintf("node %d label %d (present %v), want %d", n, g.label, ok, w)
		}
	}
	return ""
}
