package ingest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
)

// toggleResource is a ResourceErr whose availability flips at runtime —
// the test's stand-in for a remote service outage and recovery.
type toggleResource struct {
	mapResource
	down atomic.Bool
}

func (r *toggleResource) ContextErr(ctx context.Context, term string) ([]string, error) {
	if r.down.Load() {
		return nil, errors.New("world: service down")
	}
	return r.m[term], nil
}

func (r *toggleResource) Context(term string) []string {
	out, _ := r.ContextErr(context.Background(), term)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadLetterAndRetry(t *testing.T) {
	res := &toggleResource{mapResource: testResource()}
	cfg := testConfig()
	cfg.Resources = []core.Resource{res}
	cfg.EpochDocs = 1000 // publish only on demand
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(3), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	defer drain(t, ing)

	// The resource goes down; the next submissions fail analysis and are
	// dead-lettered rather than half-ingested.
	res.down.Store(true)
	docs := testDocs(5)
	for _, d := range docs[3:5] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "dead letters", func() bool { return ing.Stats().DeadLetters == 2 })
	st := ing.Stats()
	if st.DocsIngested != 3 {
		t.Fatalf("failed documents were ingested: DocsIngested = %d, want 3", st.DocsIngested)
	}
	if st.AnalysisFailures != 2 {
		t.Fatalf("AnalysisFailures = %d, want 2", st.AnalysisFailures)
	}
	dls := ing.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("DeadLetters() returned %d entries", len(dls))
	}
	for _, dl := range dls {
		if dl.Attempts != 1 || dl.Err == "" || dl.Doc == nil {
			t.Fatalf("underspecified dead letter: %+v", dl)
		}
	}

	// Retrying while still down bumps attempts and re-queues.
	n, err := ing.RetryDeadLetters(context.Background())
	if err != nil || n != 0 {
		t.Fatalf("retry while down = (%d, %v), want (0, nil)", n, err)
	}
	if dls := ing.DeadLetters(); len(dls) != 2 || dls[0].Attempts != 2 {
		t.Fatalf("after failed retry: %+v", dls)
	}

	// The resource recovers; a retry admits everything.
	res.down.Store(false)
	n, err = ing.RetryDeadLetters(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("retry after recovery = (%d, %v), want (2, nil)", n, err)
	}
	if got := ing.Stats().DeadLetters; got != 0 {
		t.Fatalf("DLQ not drained: %d", got)
	}
	waitFor(t, "ingestion", func() bool { return ing.Stats().DocsIngested == 5 })
}

func TestDeadLetterBounded(t *testing.T) {
	res := &toggleResource{mapResource: testResource()}
	cfg := testConfig()
	cfg.Resources = []core.Resource{res}
	cfg.DeadLetterSize = 2
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(2), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	res.down.Store(true)
	docs := testDocs(6)
	for _, d := range docs[2:6] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "dead letters to settle", func() bool { return ing.Stats().AnalysisFailures == 4 })
	st := ing.Stats()
	if st.DeadLetters != 2 {
		t.Fatalf("DLQ size = %d, want bound 2", st.DeadLetters)
	}
	if st.DeadLetterDropped != 2 {
		t.Fatalf("DeadLetterDropped = %d, want 2", st.DeadLetterDropped)
	}
	res.down.Store(false)
	drain(t, ing)

	if _, err := ing.RetryDeadLetters(context.Background()); err != ErrClosed {
		t.Fatalf("RetryDeadLetters after Close = %v, want ErrClosed", err)
	}
}

// TestDrainUnderLoad is the satellite robustness check on shutdown: with
// producers still submitting, Close must (a) leak no goroutines, and (b)
// leave every document either fully ingested or definitively rejected —
// accepted submissions are never silently dropped.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := testConfig()
	cfg.EpochDocs = 1000
	cfg.QueueSize = 8 // small queue: Close races a full pipe
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bootstrapped = 2
	if err := ing.Bootstrap(testDocs(bootstrapped), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()

	const producers = 4
	const perProducer = 50
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				doc := testDocs(1)[0]
				doc.Title = fmt.Sprintf("load %d-%d", p, i)
				switch err := ing.Submit(doc); err {
				case nil:
					accepted.Add(1)
				case ErrClosed, ErrQueueFull:
					rejected.Add(1) // definite rejection: the caller knows
				default:
					t.Errorf("Submit: unexpected error %v", err)
					return
				}
			}
		}(p)
	}

	// Close while producers are mid-flight: wait for real submissions to
	// be in progress instead of a blind sleep, so the race-window this
	// test exercises exists on slow CI runners too.
	waitFor(t, "producers in flight", func() bool { return accepted.Load()+rejected.Load() > 0 })
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got, want := accepted.Load()+rejected.Load(), int64(producers*perProducer); got != want {
		t.Fatalf("submissions unaccounted for: %d of %d", got, want)
	}
	// Every accepted document completed the pipeline before Close
	// returned; nothing queued was dropped.
	if got, want := ing.Stats().DocsIngested, accepted.Load()+bootstrapped; got != want {
		t.Fatalf("DocsIngested = %d, want %d accepted + %d bootstrap", got, accepted.Load(), bootstrapped)
	}
	if got := ing.Current().MatchCount(browse.Selection{}); int64(got) != accepted.Load()+bootstrapped {
		t.Fatalf("served interface has %d docs, want %d", got, accepted.Load()+bootstrapped)
	}

	// No goroutine leak: intake workers and the scheduler are gone.
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC() // nudge finalizer/timer goroutines to exit
		return runtime.NumGoroutine() <= before+2
	})
}

// TestLRUCacheErrorNotCached: the bounded LRU never caches failures, so
// a recovered resource is consulted again immediately.
func TestLRUCacheErrorNotCached(t *testing.T) {
	res := &toggleResource{mapResource: testResource()}
	c := newLRUCache(16)
	res.down.Store(true)
	if _, err := c.LookupErr(context.Background(), res, "chirac"); err == nil {
		t.Fatal("want error while down")
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: %d entries", c.Len())
	}
	res.down.Store(false)
	out, err := c.LookupErr(context.Background(), res, "chirac")
	if err != nil || len(out) != 2 {
		t.Fatalf("after recovery: %v, %v", out, err)
	}
	if c.Len() != 1 {
		t.Fatalf("success not cached: %d entries", c.Len())
	}
}
