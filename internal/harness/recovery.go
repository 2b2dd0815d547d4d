package harness

import (
	"fmt"
	"sync"
	"time"

	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// RecoveryOptions sizes the recovery experiment. It compares the two
// repair paths and the cost of checkpointing itself:
//
//   - MTTR, full restart (before): a process crash detected by heartbeat,
//     repaired by tearing the whole computation down, restoring the latest
//     snapshot, and replaying the logged epochs.
//   - MTTR, selective rollback (after): a single-worker crash repaired by
//     restoring only that worker from the latest complete barrier cut and
//     replaying its delivery log — healthy workers never stop.
//   - Steady-state epoch latency with checkpointing off (before) and an
//     asynchronous barrier cut per epoch (after): the "zero-pause" claim,
//     p99 inside the checkpoint window must stay within 2x of baseline.
//
// Every trial is verified against the analytically known fault-free sum.
type RecoveryOptions struct {
	Processes         int
	WorkersPerProcess int
	Epochs            int   // total epochs fed per crash trial
	RecordsPerEpoch   int   // records per epoch
	Trials            int   // independent crash trials per mode
	CrashAtCheckpoint int64 // crash once this many checkpoints are stored
	LatencyEpochs     int   // epochs per steady-state latency probe run
	Seed              int64
}

// DefaultRecovery returns a laptop-scale configuration.
func DefaultRecovery() RecoveryOptions {
	return RecoveryOptions{Processes: 2, WorkersPerProcess: 2, Epochs: 20,
		RecordsPerEpoch: 64, Trials: 3, CrashAtCheckpoint: 5,
		LatencyEpochs: 200, Seed: 20130101}
}

// recSum is the experiment's stateful vertex: a running sum over every
// record ever received, emitted per epoch, checkpointed as one int64.
type recSum struct {
	ctx   *runtime.Context
	total int64
	dirty map[int64]bool
}

func (v *recSum) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	if v.dirty == nil {
		v.dirty = make(map[int64]bool)
	}
	if !v.dirty[t.Epoch] {
		v.dirty[t.Epoch] = true
		v.ctx.NotifyAt(t)
	}
	v.total += msg.(int64)
}

func (v *recSum) OnNotify(t ts.Timestamp) {
	delete(v.dirty, t.Epoch)
	v.ctx.SendBy(0, v.total, t)
}

func (v *recSum) Checkpoint(enc *codec.Encoder) { enc.PutInt64(v.total) }
func (v *recSum) Restore(dec *codec.Decoder)    { v.total = dec.Int64() }

// recSink collects the per-epoch emitted totals; one instance is shared
// across incarnations, so replayed epochs land as duplicate set members.
type recSink struct {
	mu      sync.Mutex
	byEpoch map[int64]map[int64]bool
	notify  chan int64 // when non-nil, receives each epoch on arrival
}

func (s *recSink) add(e, v int64) {
	s.mu.Lock()
	if s.byEpoch[e] == nil {
		s.byEpoch[e] = make(map[int64]bool)
	}
	s.byEpoch[e][v] = true
	ch := s.notify
	s.mu.Unlock()
	if ch != nil {
		ch <- e
	}
}

func (s *recSink) only(e int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byEpoch[e]) != 1 {
		return 0, false
	}
	for v := range s.byEpoch[e] {
		return v, true
	}
	return 0, false
}

type recSinkVertex struct {
	ctx  *runtime.Context
	s    *recSink
	seen map[int64]bool
}

func (v *recSinkVertex) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	if v.seen == nil {
		v.seen = make(map[int64]bool)
	}
	if !v.seen[t.Epoch] {
		v.seen[t.Epoch] = true
		v.ctx.NotifyAt(t)
	}
	v.s.add(t.Epoch, msg.(int64))
}

func (v *recSinkVertex) OnNotify(ts.Timestamp) {}

// recRun is one supervised in→sum→sink pipeline plus handles to the
// pieces the trial drivers poke: the sink, the latest incarnation's
// computation (for CrashWorker), and the first chaos transport (for
// process crashes).
type recRun struct {
	sup  *supervise.Supervisor
	sink *recSink
	want int64 // closed-form fault-free total of everything fed so far

	mu    sync.Mutex
	comp  *runtime.Computation
	chaos *transport.Chaos

	o RecoveryOptions
}

// newRecRun builds the supervised pipeline. withChaos wraps the transport
// in a fault-free chaos layer whose Crash is the process-kill switch; the
// latency probes skip it to keep the datapath minimal.
func newRecRun(o RecoveryOptions, seed int64, withChaos bool, scfg supervise.Config) (*recRun, error) {
	r := &recRun{sink: &recSink{byEpoch: make(map[int64]map[int64]bool)}, o: o}
	incarnation := 0
	factory := func() (*supervise.Build, error) {
		cfg := runtime.Config{
			Processes:         o.Processes,
			WorkersPerProcess: o.WorkersPerProcess,
			Accumulation:      runtime.AccLocalGlobal,
			Watchdog:          60 * time.Second,
			Heartbeat:         5 * time.Millisecond,
			HeartbeatTimeout:  250 * time.Millisecond,
		}
		cfg.Transport = transport.NewMem(o.Processes)
		if withChaos {
			ct := transport.NewChaos(cfg.Transport,
				transport.ChaosConfig{Seed: seed + int64(incarnation)})
			cfg.Transport = ct
			r.mu.Lock()
			if incarnation == 0 {
				r.chaos = ct
			}
			r.mu.Unlock()
		}
		incarnation++
		c, err := runtime.NewComputation(cfg)
		if err != nil {
			return nil, err
		}
		in := c.NewInput("in")
		sum := c.AddStage("sum", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &recSum{ctx: ctx}
		}, runtime.Pinned(0))
		c.Connect(in.Stage(), 0, sum, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &recSinkVertex{ctx: ctx, s: r.sink}
		}, runtime.Pinned(0))
		c.Connect(sum, 0, snk, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		r.mu.Lock()
		r.comp = c
		r.mu.Unlock()
		return &supervise.Build{
			Comp:   c,
			Inputs: map[string]*runtime.Input{"in": in},
			Probe:  c.NewProbe(snk),
		}, nil
	}
	scfg.Factory = factory
	scfg.Seed = seed
	if scfg.Store == nil {
		scfg.Store = supervise.NewMemStore(3)
	}
	sup, err := supervise.New(scfg)
	if err != nil {
		return nil, err
	}
	r.sup = sup
	return r, nil
}

// feed sends epoch e's deterministic batch: records e*R .. e*R+R-1, so the
// fault-free final total is known in closed form.
func (r *recRun) feed(e int) error {
	records := make([]runtime.Message, r.o.RecordsPerEpoch)
	for i := range records {
		v := int64(e*r.o.RecordsPerEpoch + i)
		records[i] = v
		r.want += v
	}
	return r.sup.OnNext("in", records...)
}

// finish closes the input, waits the run out, and verifies the final
// epoch's sum against the closed form.
func (r *recRun) finish() error {
	if err := r.sup.CloseInput("in"); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := r.sup.Wait(); err != nil {
		return fmt.Errorf("did not recover: %w", err)
	}
	got, ok := r.sink.only(int64(r.o.Epochs - 1))
	if !ok || got != r.want {
		return fmt.Errorf("final epoch = %d (unique=%v), want %d", got, ok, r.want)
	}
	return nil
}

// crashTrial runs one crash trial and reports (wall time from crash to
// completed run, supervisor-measured restore+replay). selective crashes a
// single worker and demands repair by selective rollback; otherwise a
// whole process is killed and repair must be one full restart.
func crashTrial(o RecoveryOptions, seed int64, selective bool) (repair, restore time.Duration, err error) {
	r, err := newRecRun(o, seed, !selective, supervise.Config{Selective: selective})
	if err != nil {
		return 0, 0, err
	}
	half := o.Epochs / 2
	for e := 0; e < half; e++ {
		if err := r.feed(e); err != nil {
			return 0, 0, fmt.Errorf("feed: %w", err)
		}
		// Pace the pre-crash feeds one cut per boundary: the barrier path
		// pipelines and legally skips boundaries under a fast feeder, so
		// reaching CrashAtCheckpoint stored snapshots needs each early
		// boundary's cut to settle before the next epoch goes in.
		if int64(e) < o.CrashAtCheckpoint {
			if err := waitCheckpoints(r.sup, int64(e)+1); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := waitCheckpoints(r.sup, o.CrashAtCheckpoint); err != nil {
		return 0, 0, err
	}
	crashed := time.Now()
	if selective {
		r.mu.Lock()
		comp := r.comp
		r.mu.Unlock()
		// Worker 0 hosts the pinned stateful sum: the worst single worker
		// to lose.
		if err := comp.CrashWorker(0); err != nil {
			return 0, 0, fmt.Errorf("crash worker: %w", err)
		}
		// Let the revival land before resuming traffic: batches fed while
		// the worker is parked would race its log replay.
		deadline := time.Now().Add(10 * time.Second)
		for r.sup.Recovery().SelectiveRevivals < 1 {
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("no selective revival: %+v", r.sup.Recovery())
			}
			time.Sleep(100 * time.Microsecond)
		}
	} else {
		r.mu.Lock()
		chaos := r.chaos
		r.mu.Unlock()
		chaos.Crash(o.Processes - 1)
	}
	for e := half; e < o.Epochs; e++ {
		if err := r.feed(e); err != nil {
			return 0, 0, fmt.Errorf("feed: %w", err)
		}
	}
	if err := r.finish(); err != nil {
		return 0, 0, err
	}
	repair = time.Since(crashed)

	rec := r.sup.Recovery()
	if selective {
		if rec.SelectiveRevivals < 1 || rec.Restarts != 0 {
			return 0, 0, fmt.Errorf("single-worker crash repaired by %d revivals + %d restarts, want selective rollback only: %+v",
				rec.SelectiveRevivals, rec.Restarts, rec)
		}
	} else if rec.Restarts != 1 {
		return 0, 0, fmt.Errorf("%d restarts, want 1: %+v", rec.Restarts, rec)
	}
	return repair, rec.LastRecovery, nil
}

// latencyRun measures per-epoch completion latency in a fault-free run:
// feed one epoch, wait until its result reaches the sink, repeat. With
// checkpointing on, an asynchronous barrier cut is in flight behind every
// epoch, so the samples are taken inside the checkpoint window.
func latencyRun(o RecoveryOptions, seed int64, checkpointing bool) ([]time.Duration, error) {
	scfg := supervise.Config{CheckpointEvery: 1 << 30} // off: no boundary ever qualifies
	if checkpointing {
		scfg.CheckpointEvery = 1
	}
	r, err := newRecRun(o, seed, false, scfg)
	if err != nil {
		return nil, err
	}
	arrived := make(chan int64, o.LatencyEpochs+1)
	r.sink.notify = arrived
	samples := make([]time.Duration, 0, o.LatencyEpochs)
	for e := 0; e < o.LatencyEpochs; e++ {
		t0 := time.Now()
		records := make([]runtime.Message, o.RecordsPerEpoch)
		for i := range records {
			records[i] = int64(1)
		}
		if err := r.sup.OnNext("in", records...); err != nil {
			return nil, fmt.Errorf("latency feed: %w", err)
		}
		for {
			var got int64
			select {
			case got = <-arrived:
			case <-time.After(30 * time.Second):
				return nil, fmt.Errorf("epoch %d never reached the sink", e)
			}
			if got == int64(e) {
				break
			}
		}
		samples = append(samples, time.Since(t0))
	}
	if err := r.sup.CloseInput("in"); err != nil {
		return nil, fmt.Errorf("latency close: %w", err)
	}
	if err := r.sup.Wait(); err != nil {
		return nil, fmt.Errorf("latency run failed: %w", err)
	}
	if rec := r.sup.Recovery(); checkpointing && rec.Checkpoints < int64(o.LatencyEpochs)/2 {
		return nil, fmt.Errorf("checkpoint-window probe took only %d checkpoints over %d epochs",
			rec.Checkpoints, o.LatencyEpochs)
	}
	// Drop warmup: the first epochs pay one-time allocation and scheduler
	// ramp on both sides of the comparison.
	warm := len(samples) / 10
	if warm > 5 {
		warm = 5
	}
	return samples[warm:], nil
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ratio(before, after time.Duration) string {
	if after <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fx", float64(before)/float64(after))
}

// Recovery runs the recovery experiment: full-restart and selective-
// rollback MTTR trials plus the checkpoint-window latency probe, reported
// as before/after columns (before = full restart / checkpointing off,
// after = selective rollback / barrier cut per epoch).
func Recovery(o RecoveryOptions) (*Report, error) {
	rep := &Report{
		ID:      "recovery",
		Title:   "crash recovery: selective rollback vs full restart; checkpoint-window latency",
		Headers: []string{"metric", "before", "after", "before/after"},
	}

	var fullRepair, fullRestore, selRepair, selRestore []time.Duration
	for trial := 0; trial < o.Trials; trial++ {
		seed := o.Seed + int64(trial)*1000
		rp, rs, err := crashTrial(o, seed, false)
		if err != nil {
			return nil, fmt.Errorf("recovery trial %d (full restart): %w", trial, err)
		}
		fullRepair, fullRestore = append(fullRepair, rp), append(fullRestore, rs)
		rp, rs, err = crashTrial(o, seed+500, true)
		if err != nil {
			return nil, fmt.Errorf("recovery trial %d (selective): %w", trial, err)
		}
		selRepair, selRestore = append(selRepair, rp), append(selRestore, rs)
	}
	rep.AddRow("mttr: crash→run complete (ms, mean)",
		ms(mean(fullRepair)), ms(mean(selRepair)), ratio(mean(fullRepair), mean(selRepair)))
	rep.AddRow("mttr: restore+replay (ms, mean)",
		ms(mean(fullRestore)), ms(mean(selRestore)), ratio(mean(fullRestore), mean(selRestore)))
	rep.AddRow("workers disturbed per crash",
		fmt.Sprint(o.Processes*o.WorkersPerProcess), "1", "—")

	if o.LatencyEpochs > 0 {
		base, err := latencyRun(o, o.Seed+77, false)
		if err != nil {
			return nil, fmt.Errorf("latency baseline: %w", err)
		}
		ckpt, err := latencyRun(o, o.Seed+78, true)
		if err != nil {
			return nil, fmt.Errorf("latency checkpoint window: %w", err)
		}
		bq, cq := quantiles(base, 0.5, 0.99), quantiles(ckpt, 0.5, 0.99)
		rep.AddRow("epoch latency p50 (ms)", ms(bq[0]), ms(cq[0]), ratio(bq[0], cq[0]))
		rep.AddRow("epoch latency p99 (ms)", ms(bq[1]), ms(cq[1]), ratio(bq[1], cq[1]))
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"zero-pause acceptance: p99 with a barrier cut behind every epoch must stay within 2x of the no-checkpoint baseline; measured %.2fx",
			float64(cq[1])/float64(bq[1])))
	}
	rep.Notes = append(rep.Notes,
		"mttr rows: before = whole-process crash repaired by full restart (restore snapshot + replay log), after = single-worker crash repaired by selective rollback from the latest barrier cut; healthy workers never stop",
		"latency rows: before = checkpointing off, after = an asynchronous barrier cut in flight behind every epoch (the checkpoint window)",
		fmt.Sprintf("every trial's final-epoch sum equals the closed-form fault-free total (%d trials per mode)", o.Trials))
	return rep, nil
}

func waitCheckpoints(sup *supervise.Supervisor, n int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for sup.Recovery().Checkpoints < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("never reached %d checkpoints: %+v", n, sup.Recovery())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
