package main

import (
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{start: start, end: end} }

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := sp(0, 100*ms)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []span{sp(10*ms, 20*ms), sp(50*ms, 80*ms)}, 60 * ms},
		{"overlapping count once", []span{sp(10*ms, 40*ms), sp(30*ms, 60*ms), sp(35*ms, 45*ms)}, 50 * ms},
		{"touching", []span{sp(0, 50*ms), sp(50*ms, 100*ms)}, 0},
		{"clipped to the parent", []span{sp(-20*ms, 10*ms), sp(90*ms, 130*ms)}, 80 * ms},
		{"outside the parent", []span{sp(150*ms, 160*ms)}, 100 * ms},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	a := tr.begin("a", root)
	tr.end(a)
	b := tr.begin("b", root)
	tr.end(b)
	tr.end(root)
	ix := tr.index()
	if kids := ix.kids(root); len(kids) != 2 || kids[0].name != "a" || kids[1].name != "b" {
		t.Fatalf("children of root: %+v", kids)
	}
	if got := ix.named("a"); len(got) != 1 || got[0] != a {
		t.Fatalf("named(a) = %v", got)
	}
	if self := ix.self(root); self < 0 || self > ix.spans[root].dur() {
		t.Fatalf("self %v outside [0, %v]", self, ix.spans[root].dur())
	}
}

// Untraced runs pass a nil tracer; a tracer can also be switched off.
// Neither records anything.
func TestTracerOff(t *testing.T) {
	var none *tracer
	if id := none.begin("x", -1); id != -1 || none.end(id) != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	tr := newTracer()
	tr.on.Store(false)
	if id := tr.begin("x", -1); id != -1 || len(tr.finished()) != 0 {
		t.Fatal("switched-off tracer recorded a span")
	}
}
