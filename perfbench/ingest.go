package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/textdb"
)

// Ingest workload sizes: 300 bootstrap documents, 700 streamed, an epoch
// every 100 documents and a staleness timer that never fires first.
const (
	bootstrapDocs = 300
	epochDocs     = 100
	staleness     = time.Hour
	readerPool    = 256 // selections
	minIngestReps = 3
)

// readerRoutes are the routes the ingest reader uses: the mix without
// /cross.
var readerRoutes = []string{"facets", "docs", "dates"}

// stream is one ingest scenario: a live ingester bootstrapped and served
// over HTTP, wired the way facetserve -live -snapshot wires it.
type stream struct {
	seed    uint64
	in      *inputs
	dir     string
	snap    string
	ing     *ingest.Ingester
	reg     *obsv.Registry
	server  *liveServer
	client  *http.Client
	pool    []request
	tr      *tracer
	docs    []*textdb.Document // the streamed documents
	mu      sync.Mutex
	sentAt  map[*textdb.Document]time.Time
	lags    []float64 // ms from submit to publication, per streamed doc
	epochMS []float64 // Stats.LastEpochMillis at each publication
	saveErr error
}

func setupStream(seed uint64, variant int, tr *tracer) (s *stream, err error) {
	ins, err := makeInputs(seed, variant)
	if err != nil {
		return nil, err
	}
	in := ins[0]
	s = &stream{seed: seed, in: in, tr: tr, reg: obsv.NewRegistry(), client: httpClient(clients()),
		sentAt: map[*textdb.Document]time.Time{}}
	if s.dir, err = os.MkdirTemp("", "perfbench-ingest-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.snap = filepath.Join(s.dir, "state.fsnp")
	sys, err := facet.NewSystem(in.env, facet.Options{HierarchyBuilder: builderName})
	if err != nil {
		return nil, err
	}
	sys.SetMetrics(s.reg)
	boot := make([]*textdb.Document, 0, bootstrapDocs)
	for i, d := range in.docs {
		doc := &textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
		if i < bootstrapDocs {
			sys.Add(d)
			boot = append(boot, doc)
		} else {
			s.docs = append(s.docs, doc)
		}
	}
	store, err := textdb.OpenStore(filepath.Join(s.dir, "store"))
	if err != nil {
		return nil, err
	}
	store.SetMetrics(s.reg)
	s.ing, err = ingest.New(ingest.Config{
		Extractors:       sys.CoreExtractors(),
		Resources:        sys.CoreResources(),
		Fallback:         sys.CoreFallback(),
		HierarchyBuilder: builderName,
		EpochDocs:        epochDocs,
		MaxStaleness:     staleness,
		Store:            store,
		Metrics:          s.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := s.ing.Bootstrap(boot, true); err != nil {
		return nil, err
	}
	gov := overload.NewGovernor(overload.GovernorConfig{Metrics: s.reg})
	srv := serve.New(s.ing.Current(), "ingest", serve.WithMetrics(s.reg), serve.WithOverload(gov))
	srv.EnableIngest(s.ing)
	s.save(s.ing.Current())
	s.ing.SetOnPublish(func(iface *browse.Interface) {
		srv.Publish(iface)
		s.published(iface)
		s.save(iface)
	})
	s.ing.Start()
	if s.server, err = startServer(srv); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed) + 3))
	if s.pool, err = makeRequests(rng, s.ing.Current(), readerPool, readerRoutes); err != nil {
		return nil, err
	}
	for _, r := range s.pool[:32] {
		if status, _, err := get(context.Background(), s.client, s.server.url+r.path, nil); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d, err %v", r.path, status, err)
		}
	}
	return s, s.saveErr
}

// save persists the serving state after a publication, as facetserve's
// -snapshot flag does.
func (s *stream) save(iface *browse.Interface) {
	snap := snapshot.Capture(iface, snapshot.Meta{Epoch: iface.Epoch(), Profile: "SNYT", CreatedUnixNano: time.Now().UnixNano()}, nil)
	sp := s.tr.begin("snapshot.save", -1)
	err := snapshot.Save(s.snap, snap, s.reg)
	s.tr.end(sp)
	if err != nil && s.saveErr == nil {
		s.saveErr = err
	}
}

// published records, for each streamed document the new epoch made
// visible, its time since submit.
func (s *stream) published(iface *browse.Interface) {
	now := time.Now()
	epochMS := float64(s.ing.Stats().LastEpochMillis)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochMS = append(s.epochMS, epochMS)
	c := iface.Corpus()
	for i := c.Len() - 1; i >= 0; i-- {
		d := c.Doc(textdb.DocID(i))
		t, ok := s.sentAt[d]
		if !ok {
			break // documents before this one were published earlier
		}
		s.lags = append(s.lags, millis(now.Sub(t)))
		delete(s.sentAt, d)
	}
}

func (s *stream) close() {
	if s.ing != nil {
		_ = s.ing.Close(context.Background()) // idempotent; the stream already closed it
	}
	if s.server != nil {
		_ = s.server.close() // the run is over; a close error changes nothing
	}
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir) // scratch space under the run's temp dir
}

// streamStats is what one stream measured.
type streamStats struct {
	elapsed    time.Duration // first submit until the final epoch is published
	submitWait time.Duration
	alloc      uint64
	reads      loopStats
	sizes      []float64
}

// maxReads bounds the reader's precomputed picks; it cycles through them.
const maxReads = 1 << 16

// run streams the documents through SubmitContext while a reader queries
// the served interface, then drains the ingester. With rate 0 the reader
// is one closed-loop goroutine, so its throughput is what the program
// serves beside the stream; otherwise it is open-loop at rate.
func (s *stream) run(rate float64) (streamStats, error) {
	var st streamStats
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	var sizeMu sync.Mutex
	seq := picks(s.seed, 0, maxReads, len(s.pool), readerRoutes, true)
	read := func(i int) bool {
		r := s.pool[seq[i%maxReads]]
		sp := s.tr.begin("http."+r.route, -1)
		// Not ctx: a read in flight when the stream ends completes.
		status, body, err := get(context.Background(), s.client, s.server.url+r.path, nil)
		s.tr.end(sp)
		if s.tr != nil {
			sizeMu.Lock()
			st.sizes = append(st.sizes, float64(len(body)))
			sizeMu.Unlock()
		}
		return err == nil && status == http.StatusOK
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rate > 0 {
			st.reads = openLoop(ctx, rate, 10*time.Minute, clients(), read)
			return
		}
		st.reads = closedLoop(ctx, 1, 10*time.Minute, func(_, i int) bool { return read(i) })
	}()
	runtime.GC()
	a0 := memStats().TotalAlloc
	start := time.Now()
	var err error
	for _, d := range s.docs {
		sp := s.tr.begin("ingest.submit", -1)
		t0 := time.Now()
		s.mu.Lock()
		s.sentAt[d] = t0
		s.mu.Unlock()
		if err = s.ing.SubmitContext(ctx, d); err != nil {
			break
		}
		st.submitWait += time.Since(t0)
		s.tr.end(sp)
	}
	if err == nil {
		err = s.ing.Close(ctx)
	}
	st.elapsed = time.Since(start)
	st.alloc = memStats().TotalAlloc - a0
	stop()
	wg.Wait()
	if err == nil {
		err = s.saveErr
	}
	return st, err
}

// check verifies the end state: every document published and persisted,
// none dead-lettered, and the last snapshot loads at the final epoch.
func (s *stream) check(o *outcome) error {
	stats := s.ing.Stats()
	o.attempted += int64(len(s.docs))
	o.failed += int64(stats.DeadLetters)
	if stats.DocsPublished != corpusDocs || stats.PersistedDocs != corpusDocs {
		o.mismatch("after the stream: %d docs published, %d persisted, want %d", stats.DocsPublished, stats.PersistedDocs, corpusDocs)
	}
	if len(s.lags) != len(s.docs) {
		o.mismatch("%d of %d streamed docs seen published", len(s.lags), len(s.docs))
	}
	snap, err := snapshot.Load(s.snap, nil)
	if err != nil {
		return err
	}
	if want := s.ing.Current().Epoch(); snap.Meta.Epoch != want {
		o.mismatch("last snapshot holds epoch %d, final epoch is %d", snap.Meta.Epoch, want)
	}
	return nil
}

func runIngest(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceIngest(cfg)
	}
	o := newOutcome()
	base := runtime.NumGoroutine()
	var setups, rates, allocs, qps, lags, lag90s []float64
	var heap float64
	start := time.Now()
	for rep := 0; rep < minIngestReps || time.Since(start) < cfg.seconds; rep++ {
		runtime.GC()
		t0 := time.Now()
		s, err := setupStream(cfg.seed, rep, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st, err := s.run(0)
		if err == nil {
			err = s.check(o)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		o.attempted += int64(st.reads.n)
		o.failed += int64(st.reads.failed)
		rates = append(rates, float64(len(s.docs))/st.elapsed.Seconds())
		allocs = append(allocs, float64(st.alloc)/1e6)
		qps = append(qps, st.reads.goodput())
		lags = append(lags, s.lags...)
		p90, err := percentile(s.lags, 0.9)
		if err != nil {
			s.close()
			return nil, err
		}
		lag90s = append(lag90s, p90)
		if rep == 0 {
			heap = heapOf(base, func() {
				s.close()
				s = nil
			})
		} else {
			s.close()
		}
		fmt.Fprintf(cfg.log, "ingest rep=%d setup_s=%.3f stream_s=%.3f reads=%d\n", rep, setups[rep], st.elapsed.Seconds(), st.reads.n)
	}
	// The lag p50 is pooled over the streams: which epoch a stream's
	// median doc lands in jumps with the race between intake and rebuilds,
	// and the pooled median averages over those jumps. The p90 is the
	// median of the streams' p90s, which a stream slowed by the host does
	// not set.
	lag50, err := percentile(lags, 0.5)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(setups))
	o.set("docs_per_s", median(rates))
	o.set("alloc_mb", median(allocs))
	o.set("heap_mb", heap)
	o.set("qps", median(qps))
	o.set("publish_lag_p50_ms", lag50)
	o.set("publish_lag_p90_ms", median(lag90s))
	return o, nil
}

// traceIngest streams variant 1 with the closed-loop reader to measure
// read throughput beside the stream, then variant 0 untraced and traced
// with an open-loop reader at openLoad of that throughput (the difference
// in stream time is the tracing overhead). It reports the ingest,
// snapshot and textdb layers from the traced stream, and the reader's
// latency and lateness over both open-loop streams.
func traceIngest(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var plain []streamStats
	var rate float64
	for _, variant := range []int{1, 0} {
		s, err := setupStream(cfg.seed, variant, nil)
		if err != nil {
			return nil, err
		}
		st, err := s.run(rate)
		if err == nil {
			err = s.check(o)
		}
		s.close()
		if err != nil {
			return nil, err
		}
		o.attempted += int64(st.reads.n)
		o.failed += int64(st.reads.failed)
		plain = append(plain, st)
		if rate == 0 {
			rate = openLoad * st.reads.goodput()
		}
	}

	tr := newTracer()
	s, err := setupStream(cfg.seed, 0, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	st, err := s.run(rate)
	if err == nil {
		err = s.check(o)
	}
	if err != nil {
		return nil, err
	}
	o.attempted += int64(st.reads.n)
	o.failed += int64(st.reads.failed)
	stats := s.ing.Stats()
	ix := tr.index()
	var saves []float64
	for _, id := range ix.named("snapshot.save") {
		saves = append(saves, millis(ix.spans[id].dur()))
	}
	snapInfo, err := os.Stat(s.snap)
	if err != nil {
		return nil, err
	}
	storeBytes, err := dirBytes(filepath.Join(s.dir, "store"))
	if err != nil {
		return nil, err
	}
	hits := s.reg.Counter("browse.query_cache.hits").Value()
	misses := s.reg.Counter("browse.query_cache.misses").Value()
	o.set("ingest.submit_wait.ms", millis(st.submitWait))
	o.set("ingest.epoch.ms", median(s.epochMS))
	o.set("ingest.cache_hit_ratio", stats.CacheHitRate)
	o.set("ingest.dead_letters", float64(stats.DeadLetters))
	o.set("snapshot.save.ms", median(saves))
	o.set("snapshot.bytes", float64(snapInfo.Size()))
	o.set("textdb.bytes_per_doc", float64(storeBytes)/float64(stats.PersistedDocs))
	if hits+misses > 0 {
		o.set("browse.cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	o.set("overload.shed", float64(counters([]*obsv.Registry{s.reg}, shedCounters...)))
	if sum, n := queueWait([]*obsv.Registry{s.reg}); n > 0 {
		o.set("overload.queue_wait_us", micros(sum)/float64(n))
	}
	o.set("serve.response_bytes", median(st.sizes))
	var reads loopStats
	for _, r := range []loopStats{plain[1].reads, st.reads} {
		reads.merge(r)
	}
	late, err := percentile(durationsIn(reads.late, micros), 0.99)
	if err != nil {
		return nil, err
	}
	o.set("loadgen.late_p99.us", late)
	if err := setLatency(o, reads.lat); err != nil {
		return nil, err
	}
	o.set("trace.overhead", millis(st.elapsed-plain[1].elapsed))
	fmt.Fprintf(cfg.log, "ingest epochs=%d stream_s=%.3f submit_spans=%d read_rate=%.0f/s\n", stats.Epochs, st.elapsed.Seconds(), len(ix.named("ingest.submit")), rate)
	return o, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
