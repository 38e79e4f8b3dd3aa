package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the public function it calls.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int64  `json:"op"`     // the op (or probe step) the call served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAs closes span id under a name known only once the call returned
// (the cache tier that served a request).
func (t *tracer) endAs(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Name = name
	t.mu.Unlock()
}

// record adds an already-timed span (for intervals measured across
// goroutines, such as a campaign point's settle time).
func (t *tracer) record(name string, op int64, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns every finished span's duration under name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// count returns how many finished spans carry name.
func (t *tracer) count(name string) int { return len(t.durations(name)) }

// layerRow is one line of the self-time table.
type layerRow struct {
	Name           string
	Count          int
	Total, Self    time.Duration
	P50            time.Duration
	SelfShareOfAll float64
}

// selfTimes computes each span name's total and self time. A span's self
// time is its duration minus the part of it covered by its children
// (overlapping children, as in a campaign with two workers, count once).
func selfTimes(spans []span) []layerRow {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	var all time.Duration
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		self := s.dur() - covered(s, kids[s.ID])
		r.Count++
		r.Total += s.dur()
		r.Self += self
		all += self
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.P50 = time.Duration(median(durs[name]))
		if all > 0 {
			r.SelfShareOfAll = float64(r.Self) / float64(all)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curLo, curHi, first = x[0], x[1], false
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if !first {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-30s %8s %12s %12s %7s %12s\n", "span", "count", "total_ms", "self_ms", "self%", "p50_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %8d %12.3f %12.3f %6.1f%% %12.1f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, 100*r.SelfShareOfAll, float64(r.P50)/1e3)
	}
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
