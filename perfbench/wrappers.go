package main

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/serve"
	"naiad/internal/supervise"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// The wrappers below sit on the public interfaces each layer is called
// through and time those calls from outside. None of them changes what
// the wrapped layer does: every call is forwarded unchanged.

// codecStats accumulates one wrapped codec's work.
type codecStats struct {
	encNS, decNS       atomic.Int64
	encRecs, decRecs   atomic.Int64
	encBytes           atomic.Int64
	typedEnc, typedDec atomic.Int64 // records that took the typed path
}

// tracedCodec wraps a codec and forwards its BatchCodec fast path, so the
// runtime keeps choosing the typed path exactly when it would unwrapped.
type tracedCodec struct {
	inner codec.Codec
	bc    codec.BatchCodec // nil when inner has no typed path
	sts   []*codecStats
}

// wrapCodec returns c itself when sts is empty (untraced), else a wrapper
// feeding every stats sink whose method set matches c's: a codec without
// a typed path must not acquire one by being wrapped.
func wrapCodec(c codec.Codec, sts ...*codecStats) codec.Codec {
	if len(sts) == 0 || sts[0] == nil {
		return c
	}
	t := &tracedCodec{inner: c, sts: sts}
	if bc, ok := c.(codec.BatchCodec); ok {
		t.bc = bc
		return &tracedBatchCodec{t}
	}
	return t
}

func (c *tracedCodec) EncodeBatch(enc *codec.Encoder, records []any) {
	n0 := len(enc.Bytes())
	t0 := time.Now()
	c.inner.EncodeBatch(enc, records)
	c.encoded(t0, int64(len(records)), len(enc.Bytes())-n0, false)
}

func (c *tracedCodec) DecodeBatch(dec *codec.Decoder, n int) []any {
	t0 := time.Now()
	out := c.inner.DecodeBatch(dec, n)
	c.decoded(t0, int64(n), false)
	return out
}

func (c *tracedCodec) encoded(t0 time.Time, n int64, bytes int, typed bool) {
	d := int64(time.Since(t0))
	for _, st := range c.sts {
		st.encNS.Add(d)
		st.encRecs.Add(n)
		st.encBytes.Add(int64(bytes))
		if typed {
			st.typedEnc.Add(n)
		}
	}
}

func (c *tracedCodec) decoded(t0 time.Time, n int64, typed bool) {
	d := int64(time.Since(t0))
	for _, st := range c.sts {
		st.decNS.Add(d)
		st.decRecs.Add(n)
		if typed {
			st.typedDec.Add(n)
		}
	}
}

// tracedBatchCodec is tracedCodec plus the forwarded typed path.
type tracedBatchCodec struct{ *tracedCodec }

func (c *tracedBatchCodec) EncodeColumn(enc *codec.Encoder, col any) bool {
	n0 := len(enc.Bytes())
	t0 := time.Now()
	if !c.bc.EncodeColumn(enc, col) {
		return false
	}
	c.encoded(t0, int64(reflect.ValueOf(col).Len()), len(enc.Bytes())-n0, true)
	return true
}

func (c *tracedBatchCodec) DecodeBatchCol(dec *codec.Decoder, n int) *batchbuf.Batch {
	t0 := time.Now()
	b := c.bc.DecodeBatchCol(dec, n)
	if b == nil {
		return nil
	}
	c.decoded(t0, int64(n), true)
	return b
}

// transportStats accumulates one or more wrapped transports' traffic.
type transportStats struct {
	frames, bytes [4]atomic.Int64 // by transport.Kind
	dataRecs      atomic.Int64    // records in remote data frames
	sendNS        atomic.Int64    // time inside Send
	recvNS        atomic.Int64    // time inside delivered handlers
	linkBytes     [2][2]atomic.Int64
	drops         atomic.Int64
	busyWallNS    atomic.Int64 // Σ wall time the wrapped transports were open
}

// tracedTransport wraps a transport, timing Send and handler calls and
// counting remote frames and bytes by kind and link. Stats is forwarded,
// so the computation's own Metrics still read the inner counters.
type tracedTransport struct {
	inner  transport.Transport
	st     *transportStats
	spans  *spanLog
	opened time.Time
	closed sync.Once
}

func wrapTransport(t transport.Transport, st *transportStats, spans *spanLog) transport.Transport {
	if st == nil {
		return t
	}
	return &tracedTransport{inner: t, st: st, spans: spans, opened: time.Now()}
}

func (t *tracedTransport) Processes() int { return t.inner.Processes() }

func (t *tracedTransport) SetHandler(proc int, h transport.Handler) {
	t.inner.SetHandler(proc, func(from int, kind transport.Kind, payload []byte) {
		t0 := time.Now()
		h(from, kind, payload)
		if from != proc {
			t.st.recvNS.Add(int64(time.Since(t0)))
		}
	})
}

func (t *tracedTransport) Send(from, to int, kind transport.Kind, payload []byte) {
	remote := from != to
	var recs int64
	epoch := int64(-1)
	if remote && kind == transport.KindData {
		epoch, recs = dataFrameHeader(payload)
	}
	n := len(payload)
	t0 := time.Now()
	t.inner.Send(from, to, kind, payload)
	if !remote {
		return
	}
	t1 := time.Now()
	t.st.sendNS.Add(int64(t1.Sub(t0)))
	if int(kind) < len(t.st.frames) {
		t.st.frames[kind].Add(1)
		t.st.bytes[kind].Add(int64(n + transport.FrameOverhead))
	}
	if kind == transport.KindData {
		t.st.dataRecs.Add(recs)
		if from < 2 && to < 2 {
			t.st.linkBytes[from][to].Add(int64(n + transport.FrameOverhead))
		}
		t.spans.add("transport.send", 0, epoch, t0, t1)
	}
}

func (t *tracedTransport) Stats() *transport.Stats { return t.inner.Stats() }

func (t *tracedTransport) Close() {
	t.closed.Do(func() {
		t.st.drops.Add(t.inner.Stats().TotalDrops())
		t.st.busyWallNS.Add(int64(time.Since(t.opened)))
	})
	t.inner.Close()
}

// dataFrameHeader reads the epoch and record count from a data frame's
// envelope (connector, destination and source vertex, timestamp, count).
// A frame it cannot parse reports no records.
func dataFrameHeader(payload []byte) (epoch, records int64) {
	epoch = -1
	_ = codec.Catch(func() {
		d := codec.NewDecoder(payload)
		d.Uint32()
		d.Uint32()
		d.Uint32()
		e := d.Int64()
		for depth := d.Uint8(); depth > 0; depth-- {
			d.Int64()
		}
		records = int64(d.Uint32())
		epoch = e
	})
	return epoch, records
}

// sinkStore wraps a lib.SinkStore. It always counts commits per epoch (the
// exactly-once oracle, one map update per epoch); when traced it also
// records when each epoch's Commit was entered and returned.
type sinkStore struct {
	inner   lib.SinkStore
	traced  bool
	mu      sync.Mutex
	commits map[int64]int
	enter   map[int64]time.Time
	exit    map[int64]time.Time
	bytes   int64
}

func newSinkStore(inner lib.SinkStore, traced bool) *sinkStore {
	s := &sinkStore{inner: inner, traced: traced, commits: make(map[int64]int)}
	if traced {
		s.enter = make(map[int64]time.Time)
		s.exit = make(map[int64]time.Time)
	}
	return s
}

func (s *sinkStore) Commit(b lib.SinkBatch) error {
	if !s.traced {
		err := s.inner.Commit(b)
		if err == nil {
			s.mu.Lock()
			s.commits[b.Epoch]++
			s.mu.Unlock()
		}
		return err
	}
	t0 := time.Now()
	err := s.inner.Commit(b)
	t1 := time.Now()
	if err == nil {
		s.mu.Lock()
		s.commits[b.Epoch]++
		if _, seen := s.enter[b.Epoch]; !seen {
			s.enter[b.Epoch], s.exit[b.Epoch] = t0, t1
		}
		s.bytes += int64(len(b.Data))
		s.mu.Unlock()
	}
	return err
}

// count returns how many times epoch e was committed.
func (s *sinkStore) count(e int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits[e]
}

// snapStore wraps a supervise.SnapshotStore, timing Save.
type snapStore struct {
	inner supervise.SnapshotStore
	mu    sync.Mutex
	saves []snapSave
}

type snapSave struct {
	epoch  int64
	bytes  int
	t0, t1 time.Time
}

func (s *snapStore) Save(epoch int64, data []byte) error {
	t0 := time.Now()
	err := s.inner.Save(epoch, data)
	t1 := time.Now()
	s.mu.Lock()
	s.saves = append(s.saves, snapSave{epoch: epoch, bytes: len(data), t0: t0, t1: t1})
	s.mu.Unlock()
	return err
}

func (s *snapStore) Epochs() ([]int64, error)         { return s.inner.Epochs() }
func (s *snapStore) Load(epoch int64) ([]byte, error) { return s.inner.Load(epoch) }

// tracedView wraps a flow's view, timing Lookup and attributing it to the
// read in flight (the benchmark's single reader issues one read at a
// time).
type tracedView struct {
	inner   serve.FrontierView
	current atomic.Int64 // op id of the read in flight
	mu      sync.Mutex
	lookups map[int64][2]time.Time
}

func (v *tracedView) Lookup(key string) ([]byte, int64, bool) {
	t0 := time.Now()
	val, e, ok := v.inner.Lookup(key)
	t1 := time.Now()
	v.mu.Lock()
	v.lookups[v.current.Load()] = [2]time.Time{t0, t1}
	v.mu.Unlock()
	return val, e, ok
}

func (v *tracedView) Frontier() ts.Timestamp { return v.inner.Frontier() }
