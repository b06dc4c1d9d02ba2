package core

import (
	"context"
	"sync"
)

// ResourceCache memoizes Context lookups per resource name, so that
// pipelines and evaluation harnesses sharing a cache across many
// configurations pay for each distinct (resource, term) query once — the
// offline precomputation strategy of Section V-D.
//
// The cache is safe for concurrent use: the parallel batch pipeline
// shares one instance across all derive-context workers. Entries are
// spread over sharded locks to keep hot-term lookups from serializing,
// and each entry carries a single-flight guard so a term that several
// workers miss simultaneously is derived exactly once — every other
// worker blocks on that first derivation and reuses its result.
//
// Failure semantics: only successful derivations are cached. When the
// in-flight leader's derivation returns an error — or panics — the entry
// is removed before the waiters are released, so they elect a new leader
// and retry rather than wedging forever or replaying a cached failure.
// A resource that is down therefore costs a (bounded, resilience-layer
// controlled) re-query on every lookup until it recovers, and recovers
// cleanly the moment it does.
type ResourceCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 64

type cacheShard struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// cacheEntry is one (resource, term) slot. done is closed exactly once,
// when the leader either fills ctx (ok=true) or abandons the entry after
// an error or panic (ok=false, entry already removed from the map).
type cacheEntry struct {
	done chan struct{}
	ctx  []string
	ok   bool
}

// NewResourceCache returns an empty cache.
func NewResourceCache() *ResourceCache {
	c := &ResourceCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]*cacheEntry{}
	}
	return c
}

// LookupErr queries the fallible resource through the cache. Concurrent
// lookups of the same (resource, term) pair share one underlying
// ContextErr call; errors are returned to the caller that observed them
// and never cached, and waiting callers retry the derivation themselves
// when the leader fails. Waiting is interruptible through ctx.
func (c *ResourceCache) LookupErr(ctx context.Context, r ResourceErr, term string) ([]string, error) {
	key := r.Name() + "\x00" + term
	sh := &c.shards[fnv32a(key)%cacheShards]
	for {
		sh.mu.Lock()
		e, exists := sh.m[key]
		if !exists {
			e = &cacheEntry{done: make(chan struct{})}
			sh.m[key] = e
			sh.mu.Unlock()
			return c.fill(ctx, sh, key, e, r, term)
		}
		sh.mu.Unlock()
		select {
		case <-e.done:
			if e.ok {
				return e.ctx, nil
			}
			// The leader errored or panicked and removed the entry;
			// loop to elect a new leader — possibly this caller.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill runs the single derivation for an entry this caller leads. On any
// failure — error return or panic in the resource — the entry is removed
// from the map BEFORE done is closed, so released waiters re-enter the
// lookup loop and retry; the panic itself still propagates to the
// leader's caller.
func (c *ResourceCache) fill(ctx context.Context, sh *cacheShard, key string, e *cacheEntry, r ResourceErr, term string) (out []string, err error) {
	abandoned := true
	defer func() {
		if abandoned {
			sh.mu.Lock()
			if sh.m[key] == e {
				delete(sh.m, key)
			}
			sh.mu.Unlock()
		}
		close(e.done)
	}()
	out, err = r.ContextErr(ctx, term)
	if err != nil {
		return nil, err
	}
	e.ctx, e.ok = out, true
	abandoned = false
	return out, nil
}

// Len returns the number of cached (resource, term) entries, including
// in-flight derivations.
func (c *ResourceCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// fnv32a is the 32-bit FNV-1a hash, inlined to keep the shard selector
// allocation-free.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
