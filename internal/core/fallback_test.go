package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/textdb"
)

// countingRes is an okRes that counts lookups, to prove the fallback is
// never consulted on healthy runs.
type countingRes struct {
	name  string
	calls atomic.Int64
}

func (c *countingRes) Name() string { return c.name }
func (c *countingRes) Context(term string) []string {
	c.calls.Add(1)
	return []string{c.name + " of " + term}
}

func TestFallbackRescuesWhenAllResourcesDown(t *testing.T) {
	important := [][]string{
		{"alpha", "beta"},
		{"beta"},
		{},
		{"gamma"},
	}
	for _, workers := range []int{1, 4} {
		out, degs, rescued, err := DeriveContextFallbackReport(context.Background(), important,
			[]Resource{downRes{"dead1"}, downRes{"dead2"}}, okRes{"corpus"}, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out[0]) != 2 || out[0][0] != "corpus of alpha" || out[0][1] != "corpus of beta" {
			t.Fatalf("workers=%d: out[0] = %v, want corpus context", workers, out[0])
		}
		if rescued != 4 {
			t.Fatalf("workers=%d: rescued = %d, want 4 (one per failed (doc, term) pair)", workers, rescued)
		}
		// Both dead resources still show up in the degradation report.
		if len(degs) != 2 || degs[0].Name != "dead1" || degs[1].Name != "dead2" {
			t.Fatalf("workers=%d: degs = %+v", workers, degs)
		}
	}
}

func TestFallbackUntouchedOnHealthyRun(t *testing.T) {
	important := [][]string{{"alpha", "beta"}, {"gamma"}}
	fb := &countingRes{name: "corpus"}
	withFB, degs, rescued, err := DeriveContextFallbackReport(context.Background(), important,
		[]Resource{okRes{"live"}}, fb, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	without, _, _, err2 := DeriveContextFallbackReport(context.Background(), important,
		[]Resource{okRes{"live"}}, nil, nil, 2)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !reflect.DeepEqual(withFB, without) {
		t.Fatalf("healthy run perturbed by fallback:\n%v\nvs\n%v", withFB, without)
	}
	if rescued != 0 || len(degs) != 0 {
		t.Fatalf("rescued=%d degs=%+v on a healthy run", rescued, degs)
	}
	if fb.calls.Load() != 0 {
		t.Fatalf("fallback consulted %d times on a healthy run", fb.calls.Load())
	}
}

func TestFallbackNotConsultedOnPartialFailure(t *testing.T) {
	// One resource answers: the pair is degraded but NOT context-free, so
	// the fallback stays out of it.
	important := [][]string{{"alpha"}}
	fb := &countingRes{name: "corpus"}
	out, degs, rescued, err := DeriveContextFallbackReport(context.Background(), important,
		[]Resource{downRes{"dead"}, okRes{"live"}}, fb, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rescued != 0 || fb.calls.Load() != 0 {
		t.Fatalf("fallback used despite a surviving resource (rescued=%d calls=%d)", rescued, fb.calls.Load())
	}
	if len(out[0]) != 1 || out[0][0] != "live of alpha" {
		t.Fatalf("out[0] = %v", out[0])
	}
	if len(degs) != 1 || degs[0].Name != "dead" {
		t.Fatalf("degs = %+v", degs)
	}
}

func TestFallbackFailureRecordedAsDegradation(t *testing.T) {
	important := [][]string{{"alpha"}}
	out, degs, rescued, err := DeriveContextFallbackReport(context.Background(), important,
		[]Resource{downRes{"dead"}}, downRes{"corpus"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rescued != 0 || len(out[0]) != 0 {
		t.Fatalf("rescued=%d out[0]=%v from a dead fallback", rescued, out[0])
	}
	names := []string{degs[0].Name, degs[1].Name}
	if len(degs) != 2 || names[0] != "corpus" || names[1] != "dead" {
		t.Fatalf("degs = %+v, want corpus and dead", degs)
	}
}

func TestRunContextFallbackLookups(t *testing.T) {
	corpus := textdb.NewCorpus()
	for i := 0; i < 6; i++ {
		corpus.Add(&textdb.Document{
			Title: "jazz concert",
			Text:  fmt.Sprintf("jazz concert downtown number %d", i),
		})
	}
	p, err := New(Config{
		Extractors: []Extractor{okExtractor{}},
		Resources:  []Resource{downRes{"dead"}},
		Fallback:   okRes{"corpus"},
		TopK:       10,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackLookups != 6 {
		t.Fatalf("FallbackLookups = %d, want 6 (one per document's single term)", res.FallbackLookups)
	}
	// The rescued context feeds Step 3: the corpus-of-jazz term gains
	// contextual occurrences and becomes a candidate.
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates from fallback-derived context")
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Name != "dead" {
		t.Fatalf("Degradations = %+v", res.Degradations)
	}
}
