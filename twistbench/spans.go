package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one traced request share a
// Trace ID; Parent is the ID of the span that caused this one (0 for a
// root).
type span struct {
	Trace  int64     `json:"trace"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; write dumps them once the run is over, so
// recording costs no I/O inside a measured interval. It is used from one
// goroutine only.
type tracer struct {
	spans  []*span
	nextID int64
	trace  int64
}

// begin opens a trace (one traced request) and returns its root span.
func (t *tracer) begin(name string) *span {
	t.trace++
	return t.open(name, 0)
}

// open starts a span named name under parent (0: a root of the current
// trace).
func (t *tracer) open(name string, parent int64) *span {
	t.nextID++
	s := &span{Trace: t.trace, ID: t.nextID, Parent: parent, Name: name, Start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

// close ends s now.
func (t *tracer) close(s *span) { s.End = time.Now() }

// child runs f inside a span named name under parent and returns the span.
func (t *tracer) child(parent *span, name string, f func()) *span {
	s := t.open(name, parent.ID)
	f()
	t.close(s)
	return s
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once, and the part of a child outside its parent counts not at all).
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent *span, children []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
