// Command perfbench is the repository's end-to-end benchmark: three seeded
// workloads, each driving 2 simulated processes × 1 worker over real
// loopback TCP, reported as end-to-end metrics (untraced run) or as
// per-layer metrics measured by wrapping each layer's public interface
// (traced run). See README.md for the workloads, the metric definitions and
// the layer → metric → workload map.
//
// Usage:
//
//	perfbench --workload <stream-count|wcc-batch|serve-rw> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload phase measured: operation accounting, the
// oracle verdict, end-to-end metrics, and (traced) per-layer metrics.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string           // oracle mismatches and broken invariants
	dataBytes map[int]int64      // job index → remote data bytes, where a job is one computation
	e2e       map[string]float64 // end-to-end metric → value, in e2eUnits' unit
	layer     map[string]float64 // per-layer metric → value, in perLayerUnits' unit
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloadSpec runs one workload for the given duration. A nil *layers runs
// untraced; otherwise every layer boundary the workload crosses is
// wrapped and timed through it.
type workloadSpec struct {
	run func(seed int64, seconds float64, ly *layers) (*outcome, error)
	// primary is the end-to-end metric trace.overhead_frac compares.
	primary string
}

var workloads = map[string]workloadSpec{
	"stream-count": {run: runStream, primary: "latency_p50_ms"},
	"wcc-batch":    {run: runWCC, primary: "job_s"},
	"serve-rw":     {run: runServe, primary: "latency_p50_ms"},
}

// e2eUnits lists every end-to-end metric the untraced run reports; each
// workload reports all of them. They are the figures that hold still on a
// shared host whose other tenants steal CPU: a median latency over the
// run's calmer windows, CPU time per record (the kernel does not charge a
// process for time stolen from it), set-up time and memory.
var e2eUnits = map[string]string{
	"latency_p50_ms": "ms",
	"cpu_us_per_rec": "us",
	"setup_s":        "s",
	"heap_peak_mb":   "MB",
}

// wallUnits lists the end-to-end figures that follow the host's CPU steal
// too closely to bound a change by: latency tails, the ack times behind
// them and closed-loop wall-clock speed. Each workload measures them
// untraced too, and the traced run reports its untraced half's values as
// per-layer metrics named "wall.<name>".
var wallUnits = map[string]string{
	"latency_p95_ms": "ms",
	"ack_p50_ms":     "ms",
	"ack_p95_ms":     "ms",
	"throughput_rps": "rec/s",
	"job_s":          "s",
}

func main() {
	name := flag.String("workload", "", "workload: stream-count, wcc-batch or serve-rw")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(*name, wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation. The untraced run reports the
// end-to-end metrics. The traced run spends the first half untraced and
// the second half traced, and reports the per-layer metrics plus the
// traced half's slowdown of the workload's primary metric.
func run(name string, wl workloadSpec, seed int64, seconds float64, traced bool) (*result, error) {
	if !traced {
		o, err := wl.run(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		report(name, o)
		m, err := withUnits(pick(o.e2e, e2eUnits), e2eUnits, true)
		if err != nil {
			return nil, err
		}
		return &result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
	}
	plain, err := wl.run(seed, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	ly := newLayers()
	tr, err := wl.run(seed, seconds/2, ly)
	if err != nil {
		return nil, err
	}
	// The wrappers must not change what the program does: a job on the
	// same input moves the same data bytes traced and untraced (frame
	// boundaries, and so per-frame overhead, may differ slightly).
	for n, b := range tr.dataBytes {
		if pb, ok := plain.dataBytes[n]; ok && math.Abs(float64(b-pb)) > 1e-3*float64(pb) {
			tr.problem("job %d moved %d data bytes traced, %d untraced", n, b, pb)
		}
	}
	report(name+" (untraced half)", plain)
	report(name+" (traced half)", tr)
	m := tr.layer
	m["trace.overhead_frac"] = tr.e2e[wl.primary]/plain.e2e[wl.primary] - 1
	for n := range wallUnits {
		m["wall."+n] = plain.e2e[n]
	}
	if err := ly.spans.write(filepath.Join(".bench_build", "perfbench", "spans-"+name+".jsonl")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}
	full, err := withUnits(m, perLayerUnits, false)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   len(plain.problems) == 0 && len(tr.problems) == 0,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
		Metrics:   full,
	}, nil
}

// pick returns the values of vals whose names units declares.
func pick(vals map[string]float64, units map[string]string) map[string]float64 {
	out := make(map[string]float64, len(units))
	for n, v := range vals {
		if _, ok := units[n]; ok {
			out[n] = v
		}
	}
	return out
}

// withUnits attaches each declared metric's unit. A measured metric that
// is not declared is an error. With strict (end-to-end metrics) a declared
// metric that is missing or not finite is an error too; otherwise it is
// reported as 0: a layer the workload does not use, or a quantile of no
// samples (noted on stderr).
func withUnits(vals map[string]float64, units map[string]string, strict bool) (map[string]metric, error) {
	for n := range vals {
		if _, ok := units[n]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", n)
		}
	}
	out := make(map[string]metric, len(units))
	for n, u := range units {
		v, ok := vals[n]
		bad := math.IsNaN(v) || math.IsInf(v, 0)
		switch {
		case strict && (!ok || bad):
			return nil, fmt.Errorf("end-to-end metric %s missing or not finite (%v)", n, v)
		case bad:
			fmt.Fprintf(os.Stderr, "perfbench: %s not measured, reported as 0\n", n)
			v = 0
		}
		out[n] = metric{Value: v, Unit: u}
	}
	return out, nil
}

// report prints a phase's accounting and oracle problems to stderr.
func report(label string, o *outcome) {
	fmt.Fprintf(os.Stderr, "%s: attempted=%d failed=%d problems=%d\n", label, o.attempted, o.failed, len(o.problems))
	for i, p := range o.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "  ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  oracle: %s\n", p)
	}
}

// trySetups times n set-up trials and appends each one's build time to
// times. A trial builds and starts a pipeline and returns how to tear it
// down; the teardown is not timed. The workloads run a few trials after
// each measured round or job, so that setup_s samples the whole run.
func trySetups(times *[]float64, n int, trial func() (func() error, error)) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := trial()
		if err != nil {
			return fmt.Errorf("setup trial: %w", err)
		}
		*times = append(*times, time.Since(t0).Seconds())
		if err := teardown(); err != nil {
			return fmt.Errorf("setup trial teardown: %w", err)
		}
	}
	return nil
}

// setupGroups is how many groups the set-up trials are split into.
// setup_s is calm over the groups' mean trial times. A single trial is
// bimodal: the TCP mesh wait polls every millisecond, so a trial either
// finds every link registered at once or sleeps one poll. The plain median
// of a bimodal sample flips between the modes from run to run; a group's
// mean does not.
const setupGroups = 5

// setup reports setup_s from the set-up trials and lists them on stderr.
func (o *outcome) setup(trials []float64) {
	var sb strings.Builder
	for _, t := range trials {
		fmt.Fprintf(&sb, " %.2f", t*1e3)
	}
	fmt.Fprintf(os.Stderr, "set-up trials (ms):%s\n", sb.String())
	per := max(len(trials)/setupGroups, 1)
	means := make([]float64, min(setupGroups, len(trials)))
	for g := range means {
		var sum float64
		for _, t := range trials[g*per : (g+1)*per] {
			sum += t
		}
		means[g] = sum / float64(per)
	}
	o.e2e["setup_s"] = calm(means)
}

// logf reports a failed operation on stderr, up to a limit per process.
func logf(format string, args ...any) {
	if logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

var logged atomic.Int64

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

// calm is how a run sums up its per-window or per-job figures: their lower
// quartile. On a shared host, other tenants' load comes and goes within a
// run and only ever slows a window or a job down. The lower quartile is
// the figure of the run's calmer stretches, and it still moves when a
// change slows down most windows or jobs. xs is sorted in place.
func calm(xs []float64) float64 { return quantile(xs, 0.25) }

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sleepUntil sleeps until t; a deadline already past returns at once.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// hash64 spreads int64 keys over workers (Fibonacci hashing, high bits).
func hash64(k int64) uint64 { return (uint64(k) * 0x9E3779B97F4A7C15) >> 32 }

// cpuSeconds is the process's CPU time so far, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
