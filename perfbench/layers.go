package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/runtime"
	"naiad/internal/trace"
)

// layers is the traced run's instrumentation: the span log, the shared
// counters every wrapper feeds, and the runtime tracer that supplies
// per-stage callback time. The untraced run passes a nil *layers and
// builds no wrappers.
type layers struct {
	spans  *spanLog
	codec  codecStats // every wrapped codec
	trans  transportStats
	tracer *trace.Tracer
	stages map[string]*stageTotals // by stage name
}

type stageTotals struct {
	ids                    map[int32]bool
	records, notifications int64
}

func newLayers() *layers {
	return &layers{
		spans:  newSpanLog(),
		tracer: trace.New(trace.Config{RingBits: 12}),
		stages: make(map[string]*stageTotals),
	}
}

// countStages adds one finished computation's per-stage delivery counts.
func (ly *layers) countStages(c *runtime.Computation) {
	for _, s := range c.Metrics().Stages {
		st := ly.stages[s.Name]
		if st == nil {
			st = &stageTotals{ids: make(map[int32]bool)}
			ly.stages[s.Name] = st
		}
		st.ids[int32(s.Stage)] = true
		st.records += s.Records
		st.notifications += s.Notifications
	}
}

// stageMetrics reports stage.<Name>.busy_ms (callback time per operation)
// and stage.<Name>.ns_per_rec (callback time per delivered record) from
// the tracer's per-stage histograms, summing stages that share a name,
// plus runtime.notifications_per_epoch. Every traced computation builds
// the same graph, so a stage id means the same stage in each of them.
func (ly *layers) stageMetrics(ops, epochs int64, m map[string]float64) {
	var notes int64
	for n, st := range ly.stages {
		notes += st.notifications
		var busy int64
		for id := range st.ids {
			busy += ly.tracer.StageLatency(id, false).Sum() + ly.tracer.StageLatency(id, true).Sum()
		}
		if busy == 0 && st.records == 0 {
			continue // a stage that never ran a callback, such as an input
		}
		m["stage."+n+".busy_ms"] = float64(busy) / 1e6 / float64(ops)
		if st.records > 0 {
			m["stage."+n+".ns_per_rec"] = float64(busy) / float64(st.records)
		}
	}
	m["runtime.notifications_per_epoch"] = float64(notes) / float64(epochs)
}

// codecMetrics reports the codec.* metrics.
func (ly *layers) codecMetrics(m map[string]float64) {
	c := &ly.codec
	enc, dec := c.encRecs.Load(), c.decRecs.Load()
	if enc > 0 {
		m["codec.encode_ns_per_rec"] = float64(c.encNS.Load()) / float64(enc)
		m["codec.bytes_per_rec"] = float64(c.encBytes.Load()) / float64(enc)
	}
	if dec > 0 {
		m["codec.decode_ns_per_rec"] = float64(c.decNS.Load()) / float64(dec)
	}
	if all := enc + dec; all > 0 {
		m["codec.typed_frac"] = float64(c.typedEnc.Load()+c.typedDec.Load()) / float64(all)
	}
}

// codecCheck is the wrappers' transparency check. The runtime decodes
// through a codec's typed path whenever the codec offers one, and every
// wrapped codec here is typed, so a boxed decode means a wrapper hid the
// typed path. (Encodes may be boxed legitimately: an operator that emits
// record by record hands the codec a boxed column.)
func (ly *layers) codecCheck(o *outcome) {
	c := &ly.codec
	if dec, typed := c.decRecs.Load(), c.typedDec.Load(); dec == 0 || typed != dec {
		o.problem("codec wrappers: %d of %d decoded records took the typed path", typed, dec)
	}
}

// transportMetrics reports the transport.* and progress frame metrics.
// ops normalizes data volumes, epochs progress volumes; procs is the
// process count.
func (ly *layers) transportMetrics(ops, epochs int64, procs int, m map[string]float64) {
	t := &ly.trans
	frames := t.frames[0].Load()
	m["transport.data_mb"] = float64(t.bytes[0].Load()) / 1e6 / float64(ops)
	m["transport.data_frames"] = float64(frames) / float64(ops)
	if frames > 0 {
		m["transport.records_per_frame"] = float64(t.dataRecs.Load()) / float64(frames)
	}
	if wall := t.busyWallNS.Load(); wall > 0 {
		m["transport.send_busy_frac"] = float64(t.sendNS.Load()) / float64(wall) / float64(procs)
		m["transport.recv_busy_frac"] = float64(t.recvNS.Load()) / float64(wall) / float64(procs)
	}
	a, b := t.linkBytes[0][1].Load(), t.linkBytes[1][0].Load()
	if min(a, b) > 0 {
		m["transport.link_skew"] = float64(max(a, b)) / float64(min(a, b))
	}
	m["transport.drops"] = float64(t.drops.Load())
	m["progress.frames_per_epoch"] = float64(t.frames[1].Load()) / float64(epochs)
	m["progress.kb_per_epoch"] = float64(t.bytes[1].Load()) / 1e3 / float64(epochs)
}

// goRuntime is a point-in-time reading of the Go runtime counters the
// go.* metrics difference.
type goRuntime struct {
	allocs          uint64
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	g := goRuntime{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		g.sched = s[3].Value.Float64Histogram()
	}
	return g
}

// goMetrics reports the go.* metrics between two readings; recs is the
// number of records the workload moved in between.
func goMetrics(a, b goRuntime, recs int64, m map[string]float64) {
	if recs > 0 {
		m["go.alloc_bytes_per_rec"] = float64(b.allocs-a.allocs) / float64(recs)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		var total uint64
		d := make([]uint64, len(b.sched.Counts))
		for i := range d {
			d[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += d[i]
		}
		want := uint64(math.Ceil(0.99 * float64(total)))
		var run uint64
		for i, c := range d {
			run += c
			if total > 0 && run >= want {
				hi := b.sched.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = b.sched.Buckets[i]
				}
				m["go.sched_latency_p99_us"] = hi * 1e6
				break
			}
		}
	}
}

// heapSampler tracks the peak of /gc/heap/live:bytes while it runs.
type heapSampler struct {
	stop, done chan struct{}
	once       sync.Once
	peak       atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				v := s[0].Value.Uint64()
				for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// takeMB returns the peak live heap in MB since the last take and starts a
// new peak from the current reading.
func (h *heapSampler) takeMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	cur := uint64(0)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cur = s[0].Value.Uint64()
	}
	return float64(h.peak.Swap(cur)) / 1e6
}

// peakMB stops the sampler (once) and returns the peak live heap in MB.
func (h *heapSampler) peakMB() float64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
	return float64(h.peak.Load()) / 1e6
}

// windowedMS cuts ds into consecutive windows of size items, takes each
// window's q-quantile in milliseconds and sums the windows up with calm. A
// transient disturbance, such as another tenant loading the host for a few
// seconds, then moves only the windows it overlaps rather than the run's
// figure. A short trailing window is dropped. The window values go to
// stderr.
func windowedMS(label string, ds []time.Duration, size int, q float64) float64 {
	var per []float64
	for lo := 0; lo+size <= len(ds); lo += size {
		per = append(per, quantileMS(ds[lo:lo+size], q))
	}
	if len(per) == 0 {
		return quantileMS(ds, q)
	}
	logValues(label+" windows (ms)", per)
	return calm(per)
}

// logValues lists values on stderr, in the order measured.
func logValues(label string, xs []float64) {
	var sb strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&sb, " %.4g", x)
	}
	fmt.Fprintf(os.Stderr, "%s:%s\n", label, sb.String())
}

// quantileMS is quantile over durations, in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

// stageNames is every stage name the three workloads build.
var stageNames = []string{"Exchange", "RunningCount", "Sink", "Select", "FoldByKey",
	"SelectMany", "Ingress", "Egress", "Feedback", "Join", "AggMonotonic", "Concat", "Collect"}

// perLayerUnits is every per-layer metric with its unit. A workload that
// does not use a layer reports that layer's metrics as 0.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"input.feed_us_p50": "us", "gen.late_ms": "ms",
		"codec.encode_ns_per_rec": "ns", "codec.decode_ns_per_rec": "ns",
		"codec.bytes_per_rec": "B", "codec.typed_frac": "ratio",
		"transport.data_mb": "MB", "transport.data_frames": "count",
		"transport.records_per_frame": "count", "transport.send_busy_frac": "ratio",
		"transport.recv_busy_frac": "ratio", "transport.link_skew": "ratio", "transport.drops": "count",
		"progress.frames_per_epoch": "count", "progress.kb_per_epoch": "kB",
		"progress.release_ms_p50": "ms", "progress.release_ms_p95": "ms",
		"runtime.notifications_per_epoch": "count",
		"sink.seal_ms_p50":                "ms", "sink.seal_ms_p95": "ms", "sink.commit_us_p50": "us",
		"sink.batch_kb": "kB", "sink.commits": "count",
		"serve.decode_ns_per_rec": "ns", "serve.records_per_epoch": "count",
		"serve.read_wait_ms_p50": "ms", "serve.lookup_us_p50": "us", "serve.shed": "count",
		"serve.delayed": "count", "serve.read_timeouts": "count", "serve.client_retries": "count",
		"supervise.cuts": "count", "supervise.cut_aborts": "count", "supervise.cut_kb": "kB",
		"supervise.save_us_p50": "us", "supervise.cut_lag_ms_p50": "ms",
		"go.alloc_bytes_per_rec": "B", "go.gc_cpu_frac": "ratio", "go.sched_latency_p99_us": "us",
		"wcc.reference_s": "s", "trace.overhead_frac": "ratio", "trace.residual_frac": "ratio",
	}
	for n, unit := range wallUnits {
		u["wall."+n] = unit
	}
	for _, s := range stageNames {
		u["stage."+s+".busy_ms"] = "ms"
		u["stage."+s+".ns_per_rec"] = "ns"
	}
	return u
}()
