package runtime

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

// notifyReq is a pending notification request (§2.2, generalized per §2.4
// with separate guarantee and capability times). cap is the timestamp token
// the request holds in the worker's capability book (nil for purge
// notifications): minted when the request is filed, dropped when the
// notification delivers.
type notifyReq struct {
	guarantee  ts.Timestamp
	capability ts.Timestamp
	hasCap     bool
	cap        *progress.Capability
}

// frame is one entry of a vertex's callback-time stack: the timestamp the
// current callback runs at, and whether sending is permitted (false inside
// purge notifications, which hold no capability).
type timeFrame struct {
	t       ts.Timestamp
	canSend bool
}

// vertexState is a worker's record of one vertex it hosts.
type vertexState struct {
	si        *stageInfo
	ctx       *Context
	vertex    Vertex
	bv        BatchVertex // non-nil when vertex implements the batch fast path
	vertexIdx int
	timeStack []timeFrame
	pending   []notifyReq // sorted by guarantee (Compare order)

	// input-stage bookkeeping. inputCap is the vertex's seed token: minted
	// seeded at Root(0) (the occurrence is installed directly by seedInputs),
	// downgraded on every epoch advance, dropped at close — the input's
	// frontier contribution is exactly this token's trajectory.
	inputEpoch  int64
	inputClosed bool
	inputCap    *progress.Capability

	// Held-capability bookkeeping (Context.HoldCapability). heldCaps maps the
	// per-vertex sequence number to the live token; nextCapSeq numbers the
	// next hold. Replayed callbacks re-execute in log order, so sequence
	// assignment is deterministic across crash and revival.
	heldCaps   map[uint64]*Capability
	nextCapSeq uint64

	// Barrier alignment state (asynchronous snapshots). barrierCut is the
	// cut this vertex is currently aligning (0 = none) and barrierEpoch its
	// epoch boundary E; lastCut the last cut it finished. barrierWait holds
	// the channels (chanKey) whose marker is still outstanding. While
	// aligning, the vertex processes epoch-<E work normally; epoch-≥E
	// batches are logged into barrierChans (the cut's in-flight channel
	// state) and held in barrierDefer, in arrival order, until the snapshot
	// completes. barrierFrag/barrierPending capture the fragment at the
	// snapshot instant — after every marker has arrived and every sub-
	// boundary notification has fired, so the fragment sits exactly on the
	// epoch boundary.
	barrierCut     int64
	lastCut        int64
	barrierWait    map[uint64]bool
	barrierFrag    []byte
	barrierPending []PendingNotification
	barrierChans   [][]byte
	barrierDefer   []delivery
	barrierEpoch   int64
	barrierT0      int64
}

// outKey identifies one pending outgoing batch.
type outKey struct {
	conn      graph.ConnectorID
	dstWorker int
	time      ts.Timestamp
}

// delivery is a queued batch of messages awaiting local delivery, or — when
// marker is set — a barrier marker travelling through the same queue so it
// stays FIFO with the data batches around it. The queue owns one reference
// to batch; deliverBatch releases it.
type delivery struct {
	ci    *connInfo
	vs    *vertexState
	time  ts.Timestamp
	batch *batchbuf.Batch
	src   int // sending vertex index (channel endpoint)

	// marker deliveries (cut/count per BarrierMarker; time carries the
	// cut's epoch boundary as ts.Root(epoch)). fenced markers hold a
	// localFence reference forcing later same-connector sends to queue
	// behind them instead of taking the synchronous fast path.
	marker bool
	fenced bool
	cut    int64
	count  int64

	// uncounted batches already advanced the receive-side channel counter:
	// deferred batches count at deferral, so their redelivery after the
	// snapshot must not count again.
	uncounted bool
}

// notifyCand is one entry of the deliverable-candidate queue: a vertex
// whose pending list held a request at this guarantee time with no active
// precursor when the queue was last built. Candidates are revalidated
// against the live tracker before delivery, so a stale entry is dropped,
// never delivered unsafely.
type notifyCand struct {
	vs        *vertexState
	guarantee ts.Timestamp
}

// worker is one scheduler thread (§3.2): it owns a partition of the
// vertices, delivers their messages and notifications single-threadedly,
// and participates in the progress protocol through its local tracker.
type worker struct {
	comp    *Computation
	id      int
	proc    int
	mailbox *mailbox

	vertices []*vertexState // indexed by stage id; nil when not hosted
	vsList   []*vertexState // hosted vertices, in stage order

	tracker     *progress.Tracker
	caps        *progress.CapSet // this worker's book of live timestamp tokens
	pbuf        *progress.Buffer
	raw         []update // AccNone: chronological, uncombined
	pend        update   // current run of adjacent updates to one pointstamp
	havePend    bool
	outBatch    map[outKey]*batchbuf.Batch // pending outgoing batch builders
	localQ      []delivery
	localQHead  int
	notifyCount int
	notifyCands []notifyCand // deliverable candidates, guarantee order
	notifyDirty bool         // candidate queue invalidated by a tracker change
	spare       []mailItem

	// Pooled encode/scatter scratch. frameEnc backs encodeFrame: the worker
	// is single-threaded, so one reusable encoder serves every frame it
	// produces (the old per-frame codec.NewEncoder with its undersized
	// capacity guess was a steady allocation-and-grow tax on the hot path).
	// scratchBox is the boxing spill for codecs without a typed column path;
	// hashes and counts are routeBatch's hash buffer and per-destination
	// record counts (fully consumed before any delivery can recurse, so one
	// buffer each suffices). scatter is a STACK of
	// per-destination builder tables indexed by scatterDepth: routeBatch's
	// dispatch loop delivers synchronously and can re-enter routeBatch
	// (feedback cycles, reentrant vertices), so each nesting level needs its
	// own table — sharing one corrupts the outer call's pending builders.
	frameEnc     *codec.Encoder
	scratchBox   []Message
	scatter      [][]*batchbuf.Batch
	scatterDepth int
	hashes       []uint64
	counts       []int

	// Barrier-snapshot state (nil/zero unless a cut handler is installed).
	// chanSent counts batches sent per (connector, dst vertex); chanRecv
	// counts batches delivered per (connector, src vertex) — markers carry
	// the former and are checked against the latter. localFence counts
	// markers queued locally per connector, forcing later sends behind them.
	// cutDone is the highest retired-or-aborted cut id.
	chanSent   map[uint64]int64
	chanRecv   map[uint64]int64
	localFence map[graph.ConnectorID]int
	cutDone    int64

	// Selective-rollback state (nil unless a worker-crash handler is
	// installed). dlogs holds one delivery log per hosted stage; all of it —
	// like the channel counters — survives a simulated crash: the crash
	// destroys vertex state, not the channels. replaying suppresses sends
	// and occurrence posts during log replay.
	dlogs       []*vlog
	crashed     bool
	replaying   bool
	reviveCh    chan reviveReq
	restoredCut *CutSnapshot // full-restore baseline for snap-less revival

	// Tracing state. tracer is nil when tracing is off — every hook is a
	// single predictable branch in that case. The frontier-diff fields are
	// only touched by worker 0 (one conservative local view is enough for
	// the frontier-movement event stream).
	tracer        *trace.Tracer
	traceGen      uint64
	traceFrontier map[graph.Location]int64
}

func newWorker(c *Computation, id, proc int) *worker {
	return &worker{
		comp:        c,
		id:          id,
		proc:        proc,
		mailbox:     newMailbox(&c.activity),
		pbuf:        progress.NewBuffer(),
		outBatch:    make(map[outKey]*batchbuf.Batch),
		notifyDirty: true,
		tracer:      c.cfg.Tracer,
		reviveCh:    make(chan reviveReq),
		frameEnc:    codec.NewEncoder(1024),
	}
}

// run is the worker main loop.
func (w *worker) run() {
	defer w.comp.workerWG.Done()
	defer func() {
		if r := recover(); r != nil {
			w.comp.fail(fmt.Errorf("runtime: worker %d: %v\n%s", w.id, r, debug.Stack()))
		}
	}()
	w.initVertices()
	w.seedInputs()
	idle := false
	for {
		items, ok := w.mailbox.drain(idle, w.spare)
		if !ok {
			return // aborted
		}
		var quantum0 int64
		traceQ := w.tracer != nil && len(items) > 0
		if traceQ {
			quantum0 = w.tracer.Now()
		}
		for i := range items {
			w.handleItem(&items[i])
			if w.crashed && i+1 < len(items) {
				// The quantum ends here: hand the unprocessed suffix back so
				// no delivery is lost across the park/revive cycle.
				w.mailbox.requeue(items[i+1:])
				break
			}
		}
		w.spare = items
		w.deliverAll()
		w.flushData()
		w.flushProgress()
		if w.crashed {
			// Park at a clean quantum boundary: the local queue has drained
			// and output is flushed, so the delivery log matches exactly the
			// prefix the mailbox's remaining contents continue from.
			if !w.park() {
				return
			}
			idle = false
			continue
		}
		if traceQ {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvSchedule, Worker: int32(w.id), Stage: -1, Loc: -1,
				Epoch: -1, Dur: w.tracer.Now() - quantum0, N: int64(len(items)),
			})
		}
		if w.id == 0 {
			if w.tracer != nil {
				w.emitFrontierMoves()
			}
			w.checkProbes()
		}
		if w.tracker.Empty() && w.notifyCount == 0 && !w.haveLocalQ() && w.mailbox.empty() {
			// The local view has drained; the protocol's safety property
			// (a local frontier never passes the global frontier) makes
			// this a sound global termination test.
			if m := w.comp.monitor; m != nil {
				if err := m.CheckDrained(w.id); err != nil {
					panic(err)
				}
			}
			break
		}
		idle = !w.haveLocalQ()
	}
	w.shutdownVertices()
}

// initVertices builds this worker's vertices and the per-worker machinery
// that outlives them (tracker, channel counters, delivery logs).
func (w *worker) initVertices() {
	c := w.comp
	w.buildVertices()
	w.tracker = progress.NewTracker(c.lg)
	// Every occurrence delta a token generates flows through postUpdate, so
	// capability accounting rides the ordinary broadcast path (and is
	// suppressed during replay like any other post).
	w.caps = progress.NewCapSet(fmt.Sprintf("worker %d", w.id), c.lg,
		func(p progress.Pointstamp, d int64) { w.postUpdate(p, d) })
	if c.onCut != nil {
		w.chanSent = make(map[uint64]int64)
		w.chanRecv = make(map[uint64]int64)
		w.localFence = make(map[graph.ConnectorID]int)
	}
	if c.onWorkerCrash != nil {
		w.dlogs = make([]*vlog, len(c.stages))
		for _, vs := range w.vsList {
			w.dlogs[vs.si.id] = newVlog()
		}
	}
}

// buildVertices instantiates this worker's partition of every stage. It is
// called at startup and again on revival after a simulated crash — vertex
// state is rebuilt from scratch, everything else on the worker survives.
func (w *worker) buildVertices() {
	c := w.comp
	w.vertices = make([]*vertexState, len(c.stages))
	w.vsList = w.vsList[:0]
	for _, si := range c.stages {
		var idx int
		switch {
		case si.pinned >= 0:
			if si.pinned != w.id {
				continue
			}
			idx = 0
		default:
			idx = w.id
		}
		vs := &vertexState{si: si, vertexIdx: idx}
		vs.ctx = &Context{w: w, vs: vs, index: idx, peers: si.parallelism(c.cfg.Workers())}
		if si.factory != nil {
			vs.vertex = si.factory(vs.ctx)
		} else if si.role == graph.RoleNormal {
			panic(fmt.Sprintf("runtime: stage %s has no vertex factory", si.name))
		} else {
			// System stages (ingress, egress, feedback) forward messages;
			// the timestamp action happens in sendBy. Input stages never
			// receive messages.
			if si.role != graph.RoleInput {
				vs.vertex = &forwardVertex{ctx: vs.ctx}
			}
		}
		vs.bv, _ = vs.vertex.(BatchVertex)
		w.vertices[si.id] = vs
		w.vsList = append(w.vsList, vs)
	}
}

// seedInputs installs the initial input pointstamps (§2.3) directly into
// the local tracker. Every worker seeds identically — one occurrence per
// physical input vertex — so local views are conservative from the first
// instant without any broadcast. The worker's own hosted input vertices get
// a seeded token standing for their occurrence: minted without posting (the
// seed is already in every tracker), but downgraded and dropped through the
// ordinary broadcast path as epochs advance and close.
func (w *worker) seedInputs() {
	for _, si := range w.comp.stages {
		if si.role != graph.RoleInput {
			continue
		}
		n := int64(si.parallelism(w.comp.cfg.Workers()))
		w.tracker.Update(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(si.id)}, n)
		if vs := w.vertices[si.id]; vs != nil {
			vs.inputCap = w.caps.MintSeeded(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(si.id)})
		}
	}
}

func (w *worker) haveLocalQ() bool { return w.localQHead < len(w.localQ) }

// handleItem processes one mailbox item.
func (w *worker) handleItem(it *mailItem) {
	switch it.kind {
	case mailLocalData:
		ci := w.comp.conn(it.conn)
		w.enqueueLocal(ci, it.src, it.time, it.batch)
	case mailRawData:
		ci, _, src, t, b := decodeDataBatch(w.comp, it.payload)
		// The decoded batch is self-contained (Codec contract), so the frame
		// buffer goes back to the receive arena immediately.
		batchbuf.PutBytes(it.payload)
		w.enqueueLocal(ci, src, t, b)
	case mailBarrier:
		// Markers join the local queue so they stay FIFO with data batches
		// already queued for the same vertex.
		ci := w.comp.conn(it.conn)
		vs := w.vertices[ci.dst]
		if vs == nil {
			panic(fmt.Sprintf("runtime: worker %d received marker for unhosted stage %s",
				w.id, w.comp.stage(ci.dst).name))
		}
		w.localQ = append(w.localQ, delivery{
			ci: ci, vs: vs, marker: true, cut: it.barrier, src: it.src,
			count: it.count, time: it.time,
		})
	case mailProgress:
		w.tracker.Apply(it.updates)
		w.notifyDirty = true // frontier may have moved; candidates are stale
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvProgressApply, Worker: int32(w.id), Stage: -1,
				Loc: -1, Epoch: -1, N: int64(len(it.updates)),
			})
		}
		if w.comp.cfg.CheckInvariants {
			w.tracker.CheckInvariants()
		}
		if m := w.comp.monitor; m != nil {
			if err := m.CheckFrontier(w.id, w.tracker.Frontier()); err != nil {
				panic(err)
			}
		}
	case mailControl:
		w.handleControl(it.ctl)
	}
}

func (w *worker) enqueueLocal(ci *connInfo, src int, t ts.Timestamp, b *batchbuf.Batch) {
	vs := w.vertices[ci.dst]
	if vs == nil {
		panic(fmt.Sprintf("runtime: worker %d received batch for unhosted stage %s",
			w.id, w.comp.stage(ci.dst).name))
	}
	w.localQ = append(w.localQ, delivery{ci: ci, vs: vs, src: src, time: t, batch: b})
}

func (w *worker) handleControl(ctl *controlMsg) {
	switch ctl.op {
	case ctlInputFeed:
		vs := w.vertices[ctl.stage]
		if vs.inputClosed {
			panic(fmt.Sprintf("runtime: input %s fed after close", vs.si.name))
		}
		if ctl.epoch != vs.inputEpoch {
			panic(fmt.Sprintf("runtime: input %s fed at epoch %d, current %d",
				vs.si.name, ctl.epoch, vs.inputEpoch))
		}
		t := ts.Root(ctl.epoch)
		for _, rec := range ctl.records {
			w.sendBy(vs, 0, rec, t)
		}
		if ctl.batch != nil {
			w.sendBatchBy(vs, 0, ctl.batch, t)
		}
	case ctlInputAdvance:
		vs := w.vertices[ctl.stage]
		// Each downgrade posts +1 at the new epoch before -1 at the old one —
		// the same positives-first pair the pre-capability code posted, now
		// derived from the seed token's movement.
		for e := vs.inputEpoch; e < ctl.epoch; e++ {
			vs.inputCap.Downgrade(ts.Root(e + 1))
		}
		vs.inputEpoch = ctl.epoch
		if w.dlogs != nil {
			if lg := w.dlogs[ctl.stage]; lg != nil {
				lg.add(vlogEntry{kind: vlogAdvance, epoch: ctl.epoch})
			}
		}
	case ctlInputClose:
		vs := w.vertices[ctl.stage]
		if !vs.inputClosed {
			vs.inputClosed = true
			vs.inputCap.Drop()
			if w.dlogs != nil {
				if lg := w.dlogs[ctl.stage]; lg != nil {
					lg.add(vlogEntry{kind: vlogClose})
				}
			}
		}
	case ctlCheckpoint:
		ctl.ack <- w.checkpointVertices(ctl.cp)
	case ctlRestore:
		ctl.ack <- w.restoreVertices(ctl.cp)
	case ctlBarrier:
		w.startInputBarriers(ctl.cut, ctl.epoch)
	case ctlBarrierAbort:
		w.abortBarrierCtl(ctl.cut)
	case ctlCutRetire:
		w.retireCutCtl(ctl.cut)
	case ctlCrash:
		w.crashed = true
	case ctlCapDrop:
		w.dropHeldCap(ctl.stage, ctl.hseq)
	}
}

// deliverAll drains local work: queued messages first, then deliverable
// notifications, repeating until quiescent (§3.2's messages-before-
// notifications policy; Config.NotificationsFirst inverts it for
// ablation).
func (w *worker) deliverAll() {
	for {
		progressed := false
		if w.comp.cfg.NotificationsFirst {
			for w.deliverOneNotify() {
				progressed = true
			}
		}
		for w.haveLocalQ() {
			d := w.localQ[w.localQHead]
			w.localQ[w.localQHead] = delivery{}
			w.localQHead++
			if d.marker {
				if d.fenced {
					w.localFence[d.ci.id]--
				}
				w.handleMarker(d)
			} else {
				w.deliverBatch(d)
			}
			progressed = true
		}
		if w.localQHead == len(w.localQ) {
			w.localQ = w.localQ[:0]
			w.localQHead = 0
		}
		if w.deliverOneNotify() {
			progressed = true
			continue
		}
		if !progressed {
			return
		}
	}
}

// deliverBatch invokes OnRecv for each record of a queued batch and then
// retires the batch's occurrence counts with a single update. Posting the
// retirement after all the callbacks keeps every +1 they produced
// chronologically ahead of the parent batch's -count, so the protocol's
// causal-chronology discipline is preserved while a 10k-record batch costs
// one occurrence update instead of 10k.
func (w *worker) deliverBatch(d delivery) {
	n := d.batch.Len()
	if n == 0 {
		d.batch.Release()
		return
	}
	vs := d.vs
	if vs.barrierCut != 0 && d.time.Epoch >= vs.barrierEpoch {
		// The batch is on the far side of the cut's epoch boundary: log it
		// into the cut as in-flight channel state and hold it, unprocessed,
		// until the snapshot completes. The channel counter advances now —
		// the batch has arrived; only its processing is deferred — and the
		// uncounted flag keeps redelivery from counting it twice. The queue's
		// reference rides along in barrierDefer until redelivery.
		if w.chanRecv != nil && !d.uncounted {
			w.chanRecv[chanKey(d.ci.id, d.src)]++
		}
		vs.barrierChans = append(vs.barrierChans,
			w.encodeFrameOwned(d.ci, vs.vertexIdx, d.src, d.time, d.batch))
		d.uncounted = true
		vs.barrierDefer = append(vs.barrierDefer, d)
		return
	}
	if vs.si.logged {
		w.comp.logBatch(vs.si.id, w.encodeFrameOwned(d.ci, vs.vertexIdx, d.src, d.time, d.batch))
	}
	w.noteDelivery(d.ci, vs, d.src, d.time, d.batch, d.uncounted)
	w.invokeRecvBatch(vs, d.ci.inputIdx, d.batch, d.time)
	w.postUpdate(progress.Pointstamp{Time: d.time, Loc: graph.ConnLoc(d.ci.id)}, -int64(n))
	d.batch.Release()
}

// invokeRecvBatch delivers one batch to a vertex: a single callback through
// the BatchVertex fast path when the vertex has one, otherwise one OnRecv
// per record. Either way the batch costs one activity bump and one
// time-stack frame. The batch is borrowed — the caller keeps its reference.
func (w *worker) invokeRecvBatch(vs *vertexState, input int, b *batchbuf.Batch, t ts.Timestamp) {
	w.comp.activity.Add(1)
	w.comp.counters.records[vs.si.id].Add(int64(b.Len()))
	vs.timeStack = append(vs.timeStack, timeFrame{t: t, canSend: true})
	vs.ctx.executing++
	var t0 int64
	if tr := w.tracer; tr != nil {
		t0 = tr.Now()
	}
	if vs.bv != nil {
		vs.bv.OnRecvBatch(input, b, t)
	} else {
		for i, n := 0, b.Len(); i < n; i++ {
			vs.vertex.OnRecv(input, b.Record(i), t)
		}
	}
	if tr := w.tracer; tr != nil {
		tr.CallbackN(w.id, int32(vs.si.id), t.Epoch, false, time.Duration(tr.Now()-t0), int64(b.Len()))
	}
	vs.ctx.executing--
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
}

// encodeFrame serializes a batch through the worker's pooled frame encoder.
// The returned bytes are valid only until the next encodeFrame call — long
// enough for a transport Send (every transport copies or writes before
// returning) but nothing that outlives the call.
func (w *worker) encodeFrame(ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch) []byte {
	w.frameEnc.Reset()
	w.scratchBox = encodeDataInto(w.frameEnc, ci, dstVertex, srcVertex, t, b, w.scratchBox)
	return w.frameEnc.Bytes()
}

// encodeFrameOwned is encodeFrame into an exact-size copy the caller owns —
// for the replay log, barrier channel state, and the log sink, which all
// retain the frame.
func (w *worker) encodeFrameOwned(ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch) []byte {
	return append([]byte(nil), w.encodeFrame(ci, dstVertex, srcVertex, t, b)...)
}

// invokeRecv runs a single OnRecv callback with time-stack bookkeeping.
func (w *worker) invokeRecv(vs *vertexState, input int, rec Message, t ts.Timestamp) {
	w.comp.activity.Add(1)
	w.comp.counters.records[vs.si.id].Add(1)
	vs.timeStack = append(vs.timeStack, timeFrame{t: t, canSend: true})
	vs.ctx.executing++
	if tr := w.tracer; tr != nil {
		t0 := tr.Now()
		vs.vertex.OnRecv(input, rec, t)
		tr.Callback(w.id, int32(vs.si.id), t.Epoch, false, time.Duration(tr.Now()-t0))
	} else {
		vs.vertex.OnRecv(input, rec, t)
	}
	vs.ctx.executing--
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
}

// notifyGated reports whether a pending notification is held back by an
// in-progress cut alignment: requests at or above the cut's epoch boundary
// belong to the post-snapshot execution, so they fire only after the
// vertex's fragment is captured. Sub-boundary requests are never gated —
// the snapshot waits for them, not the other way round.
func notifyGated(vs *vertexState, guarantee ts.Timestamp) bool {
	return vs.barrierCut != 0 && guarantee.Epoch >= vs.barrierEpoch
}

// rebuildNotifyCands rescans every vertex's pending list and collects the
// requests whose guarantee has no active precursor in the local view,
// ordered by guarantee time (stage id breaking ties). The local tracker
// changes only when a progress batch is applied, so this scan — formerly
// the body of every deliverOneNotify call — runs once per frontier
// movement instead of once per delivered notification.
func (w *worker) rebuildNotifyCands() {
	w.notifyDirty = false
	w.notifyCands = w.notifyCands[:0]
	for _, vs := range w.vsList {
		if len(vs.pending) == 0 {
			continue
		}
		loc := graph.StageLoc(vs.si.id)
		deliverable := false
		for i, nr := range vs.pending {
			if notifyGated(vs, nr.guarantee) {
				continue // resurfaces when the cut settles (clearBarrier)
			}
			// pending is guarantee-sorted: equal guarantees share a verdict.
			if i == 0 || vs.pending[i-1].guarantee != nr.guarantee {
				deliverable = !w.tracker.SomePrecursorOf(progress.Pointstamp{Time: nr.guarantee, Loc: loc})
			}
			if deliverable {
				w.notifyCands = append(w.notifyCands, notifyCand{vs: vs, guarantee: nr.guarantee})
			}
		}
	}
	sort.SliceStable(w.notifyCands, func(i, j int) bool {
		c := w.notifyCands[i].guarantee.Compare(w.notifyCands[j].guarantee)
		if c != 0 {
			return c < 0
		}
		return w.notifyCands[i].vs.si.id < w.notifyCands[j].vs.si.id
	})
}

// deliverOneNotify delivers at most one pending notification whose
// guarantee time has no active precursor in the local view, taken from the
// candidate queue. The queue is rebuilt lazily after the tracker changes;
// each popped candidate is revalidated against the live tracker (and the
// vertex's current pending list) before delivery, so staleness can only
// suppress a candidate — never deliver one unsafely. It reports whether a
// notification was delivered.
func (w *worker) deliverOneNotify() bool {
	if w.notifyDirty {
		w.rebuildNotifyCands()
	}
	for len(w.notifyCands) > 0 {
		cand := w.notifyCands[0]
		w.notifyCands = w.notifyCands[1:]
		vs := cand.vs
		i := sort.Search(len(vs.pending), func(i int) bool {
			return cand.guarantee.Compare(vs.pending[i].guarantee) <= 0
		})
		if i >= len(vs.pending) || vs.pending[i].guarantee != cand.guarantee {
			continue // already delivered; a duplicate candidate went stale
		}
		if notifyGated(vs, cand.guarantee) {
			// An alignment began after this candidate was queued; the request
			// is post-boundary now. clearBarrier marks the queue dirty, so the
			// rebuild after the cut settles resurfaces it.
			continue
		}
		loc := graph.StageLoc(vs.si.id)
		p := progress.Pointstamp{Time: cand.guarantee, Loc: loc}
		if w.tracker.SomePrecursorOf(p) {
			// Inserted optimistically (e.g. before the input seeds) and no
			// longer deliverable; the rebuild after the next frontier
			// movement will resurface it.
			continue
		}
		if m := w.comp.monitor; m != nil {
			if err := m.CheckDeliverable(w.id, p); err != nil {
				panic(err)
			}
		}
		nr := vs.pending[i]
		vs.pending = append(vs.pending[:i], vs.pending[i+1:]...)
		w.notifyCount--
		if w.dlogs != nil {
			if lg := w.dlogs[vs.si.id]; lg != nil {
				lg.add(vlogEntry{kind: vlogNotify, guarantee: nr.guarantee})
			}
		}
		w.comp.activity.Add(1)
		w.comp.counters.notifications[vs.si.id].Add(1)
		vs.timeStack = append(vs.timeStack, timeFrame{t: nr.capability, canSend: nr.hasCap})
		vs.ctx.executing++
		if tr := w.tracer; tr != nil {
			t0 := tr.Now()
			vs.vertex.OnNotify(nr.guarantee)
			tr.Callback(w.id, int32(vs.si.id), nr.guarantee.Epoch, true, time.Duration(tr.Now()-t0))
		} else {
			vs.vertex.OnNotify(nr.guarantee)
		}
		vs.ctx.executing--
		vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
		if nr.cap != nil {
			nr.cap.Drop()
		}
		if vs.barrierCut != 0 {
			// A sub-boundary notification just fired on an aligning vertex;
			// it may have been the last thing the snapshot was waiting for.
			w.tryCompleteBarrier(vs)
		}
		return true
	}
	return false
}

// sendBy implements Context.SendBy: timestamp adjustment for structural
// stages, occurrence-count updates, routing, and the synchronous local
// fast path with re-entrancy bounding (§3.2).
func (w *worker) sendBy(vs *vertexState, port int, msg Message, t ts.Timestamp) {
	if w.replaying {
		// Replay reconstructs state only: every send of the original
		// execution was already delivered (and logged at its receiver).
		return
	}
	si := vs.si
	if n := len(vs.timeStack); n > 0 {
		top := vs.timeStack[n-1]
		if !top.canSend {
			panic(fmt.Sprintf("runtime: %s sent a message from a purge notification", si.name))
		}
		if !top.t.LessEq(t) {
			panic(fmt.Sprintf("runtime: %s sent backwards in time: %v < callback time %v", si.name, t, top.t))
		}
	}
	if port < 0 || port >= si.numPorts {
		panic(fmt.Sprintf("runtime: stage %s: SendBy on invalid port %d", si.name, port))
	}
	outT := t
	switch si.role {
	case graph.RoleIngress:
		outT = t.PushLoop()
	case graph.RoleEgress:
		outT = t.PopLoop()
	case graph.RoleFeedback:
		outT = t.Tick()
		if si.hasMaxIter && outT.Inner() >= si.maxIter {
			return // iteration bound reached; drop the message
		}
	}
	for _, cid := range si.outPorts[port] {
		w.routeMessage(vs, w.comp.conn(cid), msg, outT)
	}
}

// sendBatchBy implements Context.SendBatchBy: sendBy's checks and timestamp
// actions at whole-batch granularity. It consumes one reference to b.
func (w *worker) sendBatchBy(vs *vertexState, port int, b *batchbuf.Batch, t ts.Timestamp) {
	if w.replaying {
		b.Release() // the original execution already delivered this send
		return
	}
	si := vs.si
	if n := len(vs.timeStack); n > 0 {
		top := vs.timeStack[n-1]
		if !top.canSend {
			panic(fmt.Sprintf("runtime: %s sent a message from a purge notification", si.name))
		}
		if !top.t.LessEq(t) {
			panic(fmt.Sprintf("runtime: %s sent backwards in time: %v < callback time %v", si.name, t, top.t))
		}
	}
	if port < 0 || port >= si.numPorts {
		panic(fmt.Sprintf("runtime: stage %s: SendBy on invalid port %d", si.name, port))
	}
	outT := t
	switch si.role {
	case graph.RoleIngress:
		outT = t.PushLoop()
	case graph.RoleEgress:
		outT = t.PopLoop()
	case graph.RoleFeedback:
		outT = t.Tick()
		if si.hasMaxIter && outT.Inner() >= si.maxIter {
			b.Release() // iteration bound reached; drop the batch
			return
		}
	}
	conns := si.outPorts[port]
	if len(conns) == 0 {
		b.Release()
		return
	}
	// routeBatch consumes a reference per connector; the batch arrives with
	// exactly one, so fan-out retains the difference up front.
	for i := 1; i < len(conns); i++ {
		b.Retain()
	}
	for _, cid := range conns {
		w.routeBatch(vs, w.comp.conn(cid), b, outT)
	}
}

// routeBatch routes a whole batch on one connector, consuming one reference
// to b. Unpartitioned (or single-peer) connectors forward the batch intact;
// partitioned ones hash every record — through the connector's batch
// partitioner when it has one, else the boxed per-record partitioner — and
// scatter into per-destination builder batches.
func (w *worker) routeBatch(vsSrc *vertexState, ci *connInfo, b *batchbuf.Batch, t ts.Timestamp) {
	n := b.Len()
	if n == 0 {
		b.Release()
		return
	}
	c := w.comp
	dstSi := c.stage(ci.dst)
	peers := dstSi.parallelism(c.cfg.Workers())
	w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, int64(n))
	if ci.part == nil || peers == 1 {
		var dstVertex int
		switch {
		case dstSi.pinned >= 0 || peers == 1:
			dstVertex = 0
		default:
			dstVertex = w.id
		}
		w.routeBatchTo(vsSrc.vertexIdx, ci, b, dstVertex, t)
		return
	}
	// Vectorized exchange: hash the whole batch, then scatter. The hash
	// buffer and builder table are worker scratch, reused across calls.
	if cap(w.hashes) < n {
		w.hashes = make([]uint64, n)
	}
	hashes := w.hashes[:n]
	if ci.bpart == nil || !ci.bpart(b.Col().Slice(), hashes) {
		for i := 0; i < n; i++ {
			hashes[i] = ci.part(b.Record(i))
		}
	}
	depth := w.scatterDepth
	if depth == len(w.scatter) {
		w.scatter = append(w.scatter, nil)
	}
	if cap(w.scatter[depth]) < peers {
		w.scatter[depth] = make([]*batchbuf.Batch, peers)
	}
	subs := w.scatter[depth][:peers]
	if cap(w.counts) < peers {
		w.counts = make([]int, peers)
	}
	scatterBatch(b, hashes, subs, w.counts[:peers])
	b.Release()
	// Dispatch under a bumped depth: a synchronous delivery below may
	// re-enter routeBatch, which must not reuse this level's table.
	w.scatterDepth++
	for dv, sub := range subs {
		if sub != nil {
			subs[dv] = nil
			w.routeBatchTo(vsSrc.vertexIdx, ci, sub, dv, t)
		}
	}
	w.scatterDepth--
}

// scatterBatch splits b across len(subs) destinations by hashes[i] modulo
// the destination count, filling subs[dv] with destination dv's records in
// their input order (nil where a destination receives none). It counts
// each destination's records first, so every sub-batch is requested at
// exactly its record count rather than at the whole input's. hashes is
// overwritten with destination indexes; counts is scratch of len(subs).
func scatterBatch(b *batchbuf.Batch, hashes []uint64, subs []*batchbuf.Batch, counts []int) {
	peers := uint64(len(subs))
	for i, h := range hashes {
		hashes[i] = h % peers
	}
	clear(counts)
	for _, dv := range hashes {
		counts[dv]++
	}
	for dv, k := range counts {
		if k > 0 {
			subs[dv] = b.NewLike(k)
		}
	}
	for i, dv := range hashes {
		subs[dv].AppendIndex(b, i)
	}
}

// routeBatchTo delivers a batch to one destination vertex of a connector,
// consuming one reference: synchronously when the destination is local and
// not too deeply re-entered, queued locally otherwise, or merged into the
// pending outgoing builder for a remote worker. The occurrence counts for
// the batch were already posted by routeBatch.
func (w *worker) routeBatchTo(src int, ci *connInfo, b *batchbuf.Batch, dstVertex int, t ts.Timestamp) {
	c := w.comp
	dstSi := c.stage(ci.dst)
	dstWorker := dstSi.workerFor(dstVertex)
	if dstWorker == w.id {
		if w.chanSent != nil {
			w.chanSent[chanKey(ci.id, dstVertex)]++
		}
		vsDst := w.vertices[ci.dst]
		limit := dstSi.reentrancy
		if limit == 0 {
			limit = c.cfg.maxReentrancy()
		}
		if c.cfg.DisableLocalFastPath {
			limit = 0
		}
		// Fencing and alignment gates as in routeMessage: a queued marker or
		// an aligning destination forces the batch through the queue.
		if w.localFence[ci.id] == 0 && vsDst.ctx.executing < limit &&
			!(vsDst.barrierCut != 0 && t.Epoch >= vsDst.barrierEpoch) {
			if dstSi.logged {
				w.comp.logBatch(dstSi.id, w.encodeFrameOwned(ci, dstVertex, src, t, b))
			}
			w.noteDelivery(ci, vsDst, src, t, b, false)
			w.invokeRecvBatch(vsDst, ci.inputIdx, b, t)
			w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, -int64(b.Len()))
			b.Release()
		} else {
			w.localQ = append(w.localQ, delivery{ci: ci, vs: vsDst, src: src, time: t, batch: b})
		}
		return
	}
	key := outKey{conn: ci.id, dstWorker: dstWorker, time: t}
	if cur, ok := w.outBatch[key]; ok {
		if !cur.AppendBatch(b) {
			// Mixed record types on one connector: widen the builder to boxed.
			wide := batchbuf.GetBoxed(cur.Len() + b.Len())
			wide.AppendBatch(cur)
			cur.Release()
			wide.AppendBatch(b)
			w.outBatch[key] = wide
			cur = wide
		}
		b.Release()
		if cur.Len() >= w.comp.cfg.batchSize() {
			w.flushOne(key)
		}
		return
	}
	w.outBatch[key] = b // builder adopts the reference
	if b.Len() >= w.comp.cfg.batchSize() {
		w.flushOne(key)
	}
}

// routeMessage delivers msg on one connector: synchronously when the
// destination vertex is local and not too deeply re-entered, queued
// locally otherwise, or batched for transmission. vsSrc is the sending
// vertex (the channel's source endpoint).
func (w *worker) routeMessage(vsSrc *vertexState, ci *connInfo, msg Message, t ts.Timestamp) {
	c := w.comp
	dstSi := c.stage(ci.dst)
	peers := dstSi.parallelism(c.cfg.Workers())
	var dstVertex int
	switch {
	case ci.part != nil:
		dstVertex = int(ci.part(msg) % uint64(peers))
	case dstSi.pinned >= 0:
		dstVertex = 0
	default:
		dstVertex = w.id
	}
	dstWorker := dstSi.workerFor(dstVertex)
	src := vsSrc.vertexIdx
	w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, 1)

	if dstWorker == w.id {
		if w.chanSent != nil {
			w.chanSent[chanKey(ci.id, dstVertex)]++
		}
		vsDst := w.vertices[ci.dst]
		limit := dstSi.reentrancy
		if limit == 0 {
			limit = c.cfg.maxReentrancy()
		}
		if c.cfg.DisableLocalFastPath {
			limit = 0
		}
		// A queued marker on this connector fences the fast path: delivering
		// synchronously would put a post-snapshot record ahead of the marker.
		// Likewise a destination aligning a cut must see its epoch-≥boundary
		// records through the queue, where deliverBatch defers them.
		if w.localFence[ci.id] == 0 && vsDst.ctx.executing < limit &&
			!(vsDst.barrierCut != 0 && t.Epoch >= vsDst.barrierEpoch) {
			if dstSi.logged || w.chanRecv != nil || w.dlogs != nil {
				one := batchbuf.One(msg)
				if dstSi.logged {
					w.comp.logBatch(dstSi.id, w.encodeFrameOwned(ci, dstVertex, src, t, one))
				}
				w.noteDelivery(ci, vsDst, src, t, one, false)
				one.Release()
			}
			w.invokeRecv(vsDst, ci.inputIdx, msg, t)
			w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, -1)
		} else {
			w.localQ = append(w.localQ, delivery{ci: ci, vs: vsDst, src: src, time: t, batch: batchbuf.One(msg)})
		}
		return
	}
	key := outKey{conn: ci.id, dstWorker: dstWorker, time: t}
	bld, ok := w.outBatch[key]
	if !ok {
		bld = batchbuf.GetBoxed(w.comp.cfg.batchSize())
		w.outBatch[key] = bld
	}
	if !bld.Append(msg) {
		// A typed builder (installed by a batch send) met a foreign boxed
		// record: widen to a boxed builder.
		wide := batchbuf.GetBoxed(bld.Len() + 1)
		wide.AppendBatch(bld)
		bld.Release()
		wide.Append(msg)
		w.outBatch[key] = wide
		bld = wide
	}
	if bld.Len() >= w.comp.cfg.batchSize() {
		w.flushOne(key)
	}
}

// flushOne sends one pending outgoing batch.
func (w *worker) flushOne(key outKey) {
	b := w.outBatch[key]
	delete(w.outBatch, key)
	c := w.comp
	ci := c.conn(key.conn)
	dstProc := key.dstWorker / c.cfg.WorkersPerProcess
	dstSi := c.stage(ci.dst)
	dstVertex := key.dstWorker
	if dstSi.pinned >= 0 {
		dstVertex = 0
	}
	// The channel's source endpoint is this worker's vertex of the source
	// stage (a connector has exactly one sender per worker).
	src := w.id
	if c.stage(ci.src).pinned >= 0 {
		src = 0
	}
	if w.chanSent != nil {
		w.chanSent[chanKey(ci.id, dstVertex)]++
	}
	if dstProc == w.proc {
		// The push transfers the batch's reference to the receiving worker.
		c.workers[key.dstWorker].mailbox.push(mailItem{
			kind: mailLocalData, conn: key.conn, src: src,
			time: key.time, batch: b,
		})
		return
	}
	// Transports copy (or fully write) the payload before Send returns, so
	// the pooled frame encoder's view is safe to hand over.
	payload := w.encodeFrame(ci, dstVertex, src, key.time, b)
	c.trans.Send(w.proc, dstProc, transport.KindData, payload)
	b.Release()
}

// flushData sends all pending outgoing batches in a deterministic order.
func (w *worker) flushData() {
	if len(w.outBatch) == 0 {
		return
	}
	keys := make([]outKey, 0, len(w.outBatch))
	for k := range w.outBatch {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].conn != keys[j].conn {
			return keys[i].conn < keys[j].conn
		}
		if keys[i].dstWorker != keys[j].dstWorker {
			return keys[i].dstWorker < keys[j].dstWorker
		}
		return keys[i].time.Compare(keys[j].time) < 0
	})
	for _, k := range keys {
		w.flushOne(k)
	}
}

// postUpdate records a progress update for the next flush. Occurrence
// counts reach trackers (including this worker's own) only through the
// broadcast protocol, never directly. Adjacent updates to the same
// pointstamp — a routed batch's per-message +1s, a fast-path delivery's
// +1/-1 pair — coalesce into a single running ±count before touching the
// combining buffer; merging only adjacent runs preserves the worker's
// chronological order, so the safety monitor and the positives-first flush
// discipline see the same history. AccNone keeps the raw per-event stream:
// it exists to measure the uncombined protocol.
func (w *worker) postUpdate(p progress.Pointstamp, delta int64) {
	if w.replaying {
		// The original execution posted these counts; they were broadcast
		// and never retracted, so replay must not post them again.
		return
	}
	if m := w.comp.monitor; m != nil {
		if err := m.Post(p, delta); err != nil {
			panic(err)
		}
	}
	if w.comp.cfg.Accumulation == AccNone {
		w.raw = append(w.raw, update{P: p, D: delta})
		return
	}
	if w.havePend && w.pend.P == p {
		w.pend.D += delta
		return
	}
	w.flushPend()
	w.pend = update{P: p, D: delta}
	w.havePend = true
}

// flushPend moves the current run into the combining buffer, dropping runs
// that cancelled to zero (a local fast-path delivery's +1/-1 pair).
func (w *worker) flushPend() {
	if !w.havePend {
		return
	}
	if w.pend.D != 0 {
		w.pbuf.Add(w.pend.P, w.pend.D)
	}
	w.havePend = false
}

// flushProgress broadcasts this worker's pending updates (§3.3).
func (w *worker) flushProgress() {
	w.flushPend()
	var us []update
	if w.comp.cfg.Accumulation == AccNone {
		if len(w.raw) == 0 {
			return
		}
		us = w.raw
		w.raw = nil
	} else {
		if w.pbuf.Empty() {
			return
		}
		us = w.pbuf.Drain()
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{
			Kind: trace.EvProgressPost, Worker: int32(w.id), Stage: -1,
			Loc: -1, Epoch: -1, N: int64(len(us)),
		})
	}
	w.comp.routeWorkerFlush(w.proc, us)
}

// notifyAt implements Context.NotifyAt and NotifyAtPurge.
func (w *worker) notifyAt(vs *vertexState, guarantee, capability ts.Timestamp, hasCap bool) {
	w.notifyAtChecked(vs, guarantee, capability, hasCap)
}

// notifyAtCap implements Context.NotifyAtCap.
func (w *worker) notifyAtCap(vs *vertexState, guarantee, capability ts.Timestamp) {
	w.notifyAtChecked(vs, guarantee, capability, true)
}

func (w *worker) notifyAtChecked(vs *vertexState, guarantee, capability ts.Timestamp, hasCap bool) {
	if n := len(vs.timeStack); n > 0 {
		top := vs.timeStack[n-1]
		if !top.t.LessEq(guarantee) {
			panic(fmt.Sprintf("runtime: %s requested notification before callback time: %v < %v",
				vs.si.name, guarantee, top.t))
		}
		if hasCap && (!top.canSend || !top.t.LessEq(capability)) {
			panic(fmt.Sprintf("runtime: %s requested capability it does not hold: %v at callback time %v",
				vs.si.name, capability, top.t))
		}
	}
	nr := notifyReq{guarantee: guarantee, capability: capability, hasCap: hasCap}
	if hasCap {
		// The request holds a token at its capability time. During replay the
		// mint's +1 is suppressed (the pre-crash request already posted it) but
		// the token still registers, so the replayed pending list is live.
		nr.cap = w.caps.Mint(progress.Pointstamp{Time: capability, Loc: graph.StageLoc(vs.si.id)})
	}
	// Insert sorted by guarantee so earlier notifications deliver first.
	i := sort.Search(len(vs.pending), func(i int) bool {
		return guarantee.Compare(vs.pending[i].guarantee) < 0
	})
	vs.pending = append(vs.pending, notifyReq{})
	copy(vs.pending[i+1:], vs.pending[i:])
	vs.pending[i] = nr
	w.notifyCount++
	if w.replaying {
		return // counts recomputed after replay; no candidate bookkeeping
	}
	// Evaluate deliverability at insertion: the candidate queue is only
	// rebuilt on frontier movement, and an already-deliverable request
	// would otherwise wait for a progress batch that may never come.
	if notifyGated(vs, guarantee) {
		return // post-boundary request; resurfaces when the cut settles
	}
	if !w.notifyDirty && w.tracker != nil &&
		!w.tracker.SomePrecursorOf(progress.Pointstamp{Time: guarantee, Loc: graph.StageLoc(vs.si.id)}) {
		j := sort.Search(len(w.notifyCands), func(j int) bool {
			c := guarantee.Compare(w.notifyCands[j].guarantee)
			if c != 0 {
				return c < 0
			}
			return vs.si.id < w.notifyCands[j].vs.si.id
		})
		w.notifyCands = append(w.notifyCands, notifyCand{})
		copy(w.notifyCands[j+1:], w.notifyCands[j:])
		w.notifyCands[j] = notifyCand{vs: vs, guarantee: guarantee}
	}
}

// checkProbes advances registered probes past epochs that are complete at
// their location, according to this worker's (conservative) local view.
func (w *worker) checkProbes() {
	maxEpoch := w.comp.maxEpoch.Load()
	for _, pr := range w.comp.probes {
		next := pr.completed.Load() + 1
		for next <= maxEpoch {
			p := progress.Pointstamp{Time: ts.Root(next), Loc: pr.loc}
			if w.tracker.SomePrecursorOf(p) || w.tracker.Occurrence(p) > 0 {
				break
			}
			pr.advance(next)
			next++
		}
	}
}

// shutdownVertices delivers OnShutdown to vertices that want it, then
// reports any still-live capabilities to the leak audit. Only the clean
// termination path reaches here (aborts return early), so a reported token
// is a genuine leak — a permanent frontier stall — not a torn-down test.
func (w *worker) shutdownVertices() {
	for _, vs := range w.vsList {
		if n, ok := vs.vertex.(Notifiable); ok {
			n.OnShutdown()
		}
	}
	w.caps.ReportLeaks()
}

// forwardVertex is the system vertex of ingress, egress, and feedback
// stages: it forwards every message on port 0, letting sendBy apply the
// stage's timestamp action.
type forwardVertex struct {
	ctx *Context
}

func (v *forwardVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	v.ctx.SendBy(0, msg, t)
}

// OnRecvBatch forwards the whole batch without unboxing it; the extra
// Retain balances SendBatchBy consuming a reference the runtime still holds.
func (v *forwardVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	v.ctx.SendBatchBy(0, b.Retain(), t)
}

func (v *forwardVertex) OnNotify(ts.Timestamp) {}
