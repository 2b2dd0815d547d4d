package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, or one interval between
// two such calls. Times are nanoseconds since the span log was created.
// Op is the operation the span belongs to: the epoch, request or job id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpans bounds the in-memory log; later spans are counted, not kept.
const maxSpans = 1 << 21

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin  time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// at converts a wall-clock instant to span time.
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.origin)) }

// add records a span and returns its id.
func (l *spanLog) add(name string, parent, op int64, start, end time.Time) int64 {
	id := l.nextID.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Op: op, Start: l.at(start), End: l.at(end)}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
	return id
}

// selfTimes returns, for every span id, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once).
func (l *spanLog) selfTimes() map[int64]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(l.spans))
	for _, s := range l.spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// residual is the share of the named root spans' total duration that no
// child span explains: Σ self(root) / Σ duration(root).
func (l *spanLog) residual(root string) float64 {
	self := l.selfTimes()
	l.mu.Lock()
	defer l.mu.Unlock()
	var unexplained, total int64
	for _, s := range l.spans {
		if s.Name == root && s.Parent == 0 {
			unexplained += self[s.ID]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unexplained) / float64(total)
}

// write dumps every span as one JSON line, followed by a per-name summary
// line of total and self time.
func (l *spanLog) write(path string) error {
	self := l.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type total struct {
		Name   string `json:"summary"`
		Count  int64  `json:"count"`
		TotalN int64  `json:"total_ns"`
		SelfN  int64  `json:"self_ns"`
	}
	byName := make(map[string]*total)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
		t := byName[s.Name]
		if t == nil {
			t = &total{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalN += s.End - s.Start
		t.SelfN += self[s.ID]
	}
	dropped := l.dropped
	l.mu.Unlock()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(byName[n]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]int64{"dropped_spans": dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
