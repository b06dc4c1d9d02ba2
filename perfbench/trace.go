package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// offsets from the tracer's start; parent is -1 for a root span.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site; a tracer
// switched off records nothing either.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	on    atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// begin opens a span under parent and returns its id, or -1 when the
// tracer is nil or off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return t.spans[id].dur()
}

// finished returns a copy of every closed span, indexed by id.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanIndex answers queries over a finished trace.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func (t *tracer) index() *spanIndex {
	ix := &spanIndex{spans: t.finished(), children: map[int][]int{}}
	for id, s := range ix.spans {
		if s.parent >= 0 {
			ix.children[s.parent] = append(ix.children[s.parent], id)
		}
	}
	return ix
}

// named returns the ids of the closed spans called name.
func (ix *spanIndex) named(name string) []int {
	var out []int
	for id, s := range ix.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, id)
		}
	}
	return out
}

func (ix *spanIndex) kids(id int) []span {
	out := make([]span, 0, len(ix.children[id]))
	for _, c := range ix.children[id] {
		if ix.spans[c].end >= 0 {
			out = append(out, ix.spans[c])
		}
	}
	return out
}

// self is span id's self time.
func (ix *spanIndex) self(id int) time.Duration {
	return selfTime(ix.spans[id], ix.kids(id))
}

// selfTime is the parent's duration minus the part of its interval that
// its children cover. Children that overlap each other (concurrent calls)
// are counted once, and the parts of a child outside the parent are
// ignored.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
