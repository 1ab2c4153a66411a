package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch; parent is the id of the span
// that caused this one (0 = none); spans of one request share req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory trace; spans past it are counted but
// not kept, so a long traced window cannot exhaust memory.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its id (0 when the span was dropped).
func (t *tracer) add(name string, req int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Req: req})
	return id
}

// setParent re-parents span id (used when the parent is known only
// after both spans were recorded).
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > 0 && id <= len(t.spans) {
		t.spans[id-1].Parent = parent
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every kept span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace %s: %w", path, err)
	}
	return nil
}

// covered returns how much of [lo, hi) the union of the intervals
// covers, each interval clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
			continue
		}
		curE = max(curE, iv[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. The result is indexed
// like spans.
func selfTimes(spans []span) []int64 {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if pi, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[pi] = append(children[pi], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// uncoveredShare is the fraction of the root spans' total duration that
// no child span covers: the client-observed time no layer accounts for.
func uncoveredShare(spans []span, root string) float64 {
	self := selfTimes(spans)
	var tot, unc int64
	for i, s := range spans {
		if s.Name == root {
			tot += s.dur()
			unc += self[i]
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(unc) / float64(tot)
}
