package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countingResource counts real ContextErr calls so tests can observe
// misses.
type countingResource struct {
	name  string
	calls atomic.Int64
}

func (r *countingResource) Name() string { return r.name }

func (r *countingResource) ContextErr(_ context.Context, term string) ([]string, error) {
	r.calls.Add(1)
	return []string{"ctx-" + term}, nil
}

func TestLRUCacheHitsAndEviction(t *testing.T) {
	ctx := context.Background()
	r := &countingResource{name: "r"}
	c := newLRUCache(2)

	c.LookupErr(ctx, r, "a") // miss
	c.LookupErr(ctx, r, "a") // hit
	c.LookupErr(ctx, r, "b") // miss
	c.LookupErr(ctx, r, "a") // hit — refreshes a's recency
	c.LookupErr(ctx, r, "c") // miss — evicts b (LRU)
	c.LookupErr(ctx, r, "a") // hit — a survived
	c.LookupErr(ctx, r, "b") // miss — b was evicted

	hits, misses := c.Counters()
	if hits != 3 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 3/4", hits, misses)
	}
	if got := r.calls.Load(); got != 4 {
		t.Fatalf("resource queried %d times, want 4", got)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}

func TestLRUCacheKeysByResource(t *testing.T) {
	a := &countingResource{name: "a"}
	b := &countingResource{name: "b"}
	ctx := context.Background()
	c := newLRUCache(8)
	c.LookupErr(ctx, a, "term")
	c.LookupErr(ctx, b, "term")
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("same-term lookups collided across resources: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

// TestLRUCacheConcurrent hammers the cache from many goroutines; run
// under -race it verifies the locking discipline.
func TestLRUCacheConcurrent(t *testing.T) {
	r := &countingResource{name: "r"}
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				term := fmt.Sprintf("t%d", (g+i)%32) // half fit, half churn
				got, err := c.LookupErr(context.Background(), r, term)
				if err != nil || len(got) != 1 || got[0] != "ctx-"+term {
					t.Errorf("wrong context for %s: %v", term, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Counters()
	if hits+misses != 1600 {
		t.Fatalf("hits+misses = %d, want 1600", hits+misses)
	}
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
