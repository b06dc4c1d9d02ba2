package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
)

// Serving workload sizes. The browse pool is well under the engine's
// 4,096-entry query cache and drawn Zipf-skewed, so most reads hit; the
// fanout pool is four times the cache and drawn uniformly, so most shard
// reads miss and run the posting intersection. The Zipf exponent is an
// unverified assumption: nothing in the repository measures how often
// users repeat a selection. The popularity ranking is redrawn every
// zipfBlock picks of a stream, so a run measures many rankings: with one
// ranking per round, the few selections on top set the run's throughput
// (SPREADS.md has the spreads measured both ways).
const (
	cacheEntries = 4096
	browsePool   = 1024
	fanoutPool   = 4 * cacheEntries
	zipfS        = 1.1
	zipfBlock    = 2048
	warmRequests = browsePool // the whole browse pool; as many fanout requests
	// openLoad is the open-loop rate of the traced run as a share of the
	// closed-loop throughput measured just before it: below capacity.
	openLoad    = 0.5
	sampleEvery = 8 // every 8th response body is checked
	spanHeader  = "X-Bench-Span"
)

var shardNames = []string{"a", "b", "c"}

// topology is one serving set-up: a single node (browse) or a coordinator
// over in-process shards (fanout), plus the single-node reference engine.
type topology struct {
	b        *built
	pool     []request
	url      string // where the load goes
	client   *http.Client
	servers  []*liveServer
	regs     []*obsv.Registry // every component's registry
	shardReg []*obsv.Registry // registries of the engines queried (browse cache counters)
	coordReg *obsv.Registry
	ref      *serve.Server // single node answering in-process, for checks
	firstOK  time.Time     // first successful response
	tr       *tracer       // set on traced runs; sub-request spans land here
}

func (t *topology) close() {
	for _, s := range t.servers {
		_ = s.close() // the run is over; a close error changes nothing
	}
	t.client.CloseIdleConnections()
}

func (t *topology) registry() *obsv.Registry {
	reg := obsv.NewRegistry()
	t.regs = append(t.regs, reg)
	return reg
}

// node wraps a browse engine in a serve.Server with admission control,
// the way facetserve wires it.
func (t *topology) node(iface *browse.Interface, title string) (*serve.Server, *obsv.Registry) {
	reg := t.registry()
	iface.SetMetrics(reg)
	gov := overload.NewGovernor(overload.GovernorConfig{Metrics: reg})
	return serve.New(iface, title, serve.WithMetrics(reg), serve.WithOverload(gov)), reg
}

// setupTopology builds the corpus variant and the system, starts the
// servers and warms them up. Everything it starts is stopped by close.
func setupTopology(seed uint64, variant int, fanout bool, tr *tracer) (t *topology, err error) {
	ins, err := makeInputs(seed, variant)
	if err != nil {
		return nil, err
	}
	b, err := buildSystem(ins[0], 0, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	t = &topology{b: b, client: httpClient(clients()), tr: tr}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	var refReg *obsv.Registry
	t.ref, refReg = t.node(b.iface, "reference")
	size := browsePool
	if fanout {
		size = fanoutPool
		err = t.startCluster()
	} else {
		t.shardReg = []*obsv.Registry{refReg}
		var ls *liveServer
		if ls, err = startServer(t.ref); err == nil {
			t.servers, t.url = append(t.servers, ls), ls.url
		}
	}
	if err != nil {
		return nil, err
	}
	if t.pool, err = makeRequests(rand.New(rand.NewSource(int64(seed)+2)), b.iface, size, allRoutes); err != nil {
		return nil, err
	}
	// The cache holds selections, so one request per selection warms it.
	for i := 0; i < warmRequests; i++ {
		r := t.pool[i*len(allRoutes)+i%len(allRoutes)]
		status, body, err := get(context.Background(), t.client, t.url+r.path, nil)
		if err != nil || status != http.StatusOK || bytes.Contains(body, []byte(`"degraded"`)) {
			return nil, fmt.Errorf("warm-up %s: status %d, err %v", r.path, status, err)
		}
		if i == 0 {
			t.firstOK = time.Now()
		}
	}
	return t, nil
}

// startCluster slices the engine onto three shards, serves each with its
// scatter endpoints, and puts a coordinator in front, as facetserve's
// shard and coordinator roles do.
func (t *topology) startCluster() error {
	ring, err := cluster.NewRing(shardNames, 0)
	if err != nil {
		return err
	}
	var peers []cluster.Peer
	for _, name := range shardNames {
		sh, err := cluster.BuildShard(t.b.iface, ring, name)
		if err != nil {
			return err
		}
		srv, reg := t.node(sh.Interface(), "shard "+name)
		sh.Register(srv)
		ls, err := startServer(srv)
		if err != nil {
			return err
		}
		t.servers = append(t.servers, ls)
		t.shardReg = append(t.shardReg, reg)
		peers = append(peers, cluster.Peer{Name: name, BaseURL: ls.url})
	}
	t.coordReg = t.registry()
	var client *http.Client // nil: http.DefaultClient, as facetserve's coordinator uses
	if t.tr != nil {
		client = &http.Client{Transport: timedTransport{inner: http.DefaultTransport, tr: t.tr}}
	}
	coord, err := cluster.NewCoordinator(peers, cluster.Config{
		Client:   client,
		Metrics:  t.coordReg,
		Governor: overload.NewGovernor(overload.GovernorConfig{Metrics: t.coordReg}),
	})
	if err != nil {
		return err
	}
	var h http.Handler = coord
	if t.tr != nil {
		h = spanHandler{next: coord, tr: t.tr}
	}
	ls, err := startServer(h)
	if err != nil {
		return err
	}
	t.servers, t.url = append(t.servers, ls), ls.url
	return nil
}

type spanKey struct{}

// spanHandler records the coordinator's span for each request, under the
// client span named in the request header; sub-requests the coordinator
// issues find it in their context.
type spanHandler struct {
	next http.Handler
	tr   *tracer
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	sp := h.tr.begin("cluster.coordinator", parent)
	defer h.tr.end(sp)
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
}

// timedTransport is the timing RoundTripper of the coordinator's client:
// each shard sub-request is a span under the coordinator span.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(spanKey{}).(int)
	if !ok {
		parent = -1
	}
	sp := t.tr.begin("cluster.shard", parent)
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(sp) }}
	return resp, nil
}

// spanBody ends a sub-request span when the coordinator has read and
// closed the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// checker compares sampled response bodies with reference answers: every
// sample of one request must be identical, and equal to the reference.
type checker struct {
	mu     sync.Mutex
	bodies map[int][32]byte // pool index → body digest
	diff   map[int]bool
}

func newChecker() *checker {
	return &checker{bodies: map[int][32]byte{}, diff: map[int]bool{}}
}

func (c *checker) sample(idx int, body []byte) {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.bodies[idx]; !ok {
		c.bodies[idx] = sum
	} else if prev != sum {
		c.diff[idx] = true
	}
}

// verify checks at most limit sampled requests against want.
func (c *checker) verify(o *outcome, pool []request, limit int, want func(request) ([]byte, error)) error {
	checked := 0
	for idx, sum := range c.bodies {
		if checked == limit {
			break
		}
		checked++
		body, err := want(pool[idx])
		if err != nil {
			return err
		}
		if c.diff[idx] {
			o.mismatch("%s: samples of one request differ", pool[idx].path)
		} else if sha256.Sum256(body) != sum {
			o.mismatch("%s: body differs from the reference", pool[idx].path)
		}
	}
	return nil
}

func runBrowse(cfg runConfig) (*outcome, error) { return runServing(cfg, false) }
func runFanout(cfg runConfig) (*outcome, error) { return runServing(cfg, true) }

// sender issues pool requests against a topology and classifies the
// answers; every sampleEvery-th success goes to the checker.
type sender struct {
	t   *topology
	chk *checker
}

// send issues pool[idx]. Non-2xx answers (sheds included), degraded
// envelopes, transport errors and timeouts are failures.
func (s sender) send(idx, seq int, hdr http.Header) (ok bool, size int) {
	status, body, err := get(context.Background(), s.t.client, s.t.url+s.t.pool[idx].path, hdr)
	if err != nil || status < 200 || status > 299 || bytes.Contains(body, []byte(`"degraded"`)) {
		return false, len(body)
	}
	if seq%sampleEvery == 0 {
		s.chk.sample(idx, body)
	}
	return true, len(body)
}

// picks returns the indices into a pool of makeRequests that one load
// stream draws: a selection, uniform on fanout and Zipf-skewed on browse
// over a ranking redrawn every zipfBlock picks; then a route of routes by
// the mix.
func picks(seed uint64, stream, n, pool int, routes []string, fanout bool) []int {
	rng := rand.New(rand.NewSource(int64(seed)*31 + int64(stream)))
	sels := pool / len(routes)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(sels-1))
	var rank []int
	out := make([]int, n)
	for i := range out {
		var sel int
		if fanout {
			sel = rng.Intn(sels)
		} else {
			if i%zipfBlock == 0 {
				rank = rng.Perm(sels)
			}
			sel = rank[zipf.Uint64()]
		}
		out[i] = sel*len(routes) + pickRoute(rng, routes)
	}
	return out
}

// streams precomputes the closed-loop picks of every client.
func streams(seed uint64, n, pool int, fanout bool) [][]int {
	out := make([][]int, clients())
	for w := range out {
		out[w] = picks(seed, w+1, n, pool, allRoutes, fanout)
	}
	return out
}

const maxClosedPerClient = 1 << 16

// maxVerified bounds how many distinct sampled requests a round checks
// against the reference; the naive scans are slow by design.
const maxVerified = 200

// verifyServing checks the sampled bodies: against the naive full-scan
// reference on a single node, and byte for byte against the single node
// on the coordinator.
func verifyServing(o *outcome, t *topology, chk *checker, fanout bool) error {
	if !fanout {
		return chk.verify(o, t.pool, maxVerified, func(r request) ([]byte, error) {
			return answer(t.b.iface, r, true)
		})
	}
	return chk.verify(o, t.pool, maxVerified, func(r request) ([]byte, error) {
		req, err := http.NewRequest(http.MethodGet, r.path, nil)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		t.ref.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s: status %d", r.path, rec.Code)
		}
		return rec.Body.Bytes(), nil
	})
}

// serveRound runs a closed loop against t for dur, checks the sampled
// bodies, and returns the loop's figures and the MB allocated per 1,000
// requests.
func serveRound(o *outcome, t *topology, seed uint64, fanout bool, dur time.Duration) (loopStats, float64, error) {
	s := sender{t: t, chk: newChecker()}
	st := streams(seed, maxClosedPerClient, len(t.pool), fanout)
	runtime.GC()
	a0 := memStats().TotalAlloc
	closed := closedLoop(context.Background(), clients(), dur, func(w, seq int) bool {
		ok, _ := s.send(st[w][seq%maxClosedPerClient], seq, nil)
		return ok
	})
	allocMB := float64(memStats().TotalAlloc-a0) / 1e6 / (float64(closed.n) / 1000)
	o.attempted += int64(closed.n)
	o.failed += int64(closed.failed)
	return closed, allocMB, verifyServing(o, t, s.chk, fanout)
}

func runServing(cfg runConfig, fanout bool) (*outcome, error) {
	if cfg.trace {
		return traceServing(cfg, fanout)
	}
	base := runtime.NumGoroutine()
	// Each round sets up the next corpus variant, then runs a closed loop
	// on it for the round's share of the window. Set-up, build, throughput
	// and allocation are medians over the rounds, so neither one corpus
	// nor one disturbed stretch of a shared host sets them.
	o := newOutcome()
	var setups, builds, lag50, lag90, qps, allocs []float64
	var heap float64
	for v := 0; v < setupRepeats; v++ {
		runtime.GC()
		t0 := time.Now()
		t, err := setupTopology(cfg.seed, v, fanout, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, t.b.elapsed.Seconds())
		lags := t.b.publishLags(t.firstOK)
		p50, err1 := percentile(lags, 0.5)
		p90, err2 := percentile(lags, 0.9)
		if err1 != nil || err2 != nil {
			t.close()
			return nil, fmt.Errorf("publish lag: %v %v", err1, err2)
		}
		lag50, lag90 = append(lag50, p50), append(lag90, p90)
		closed, allocMB, err := serveRound(o, t, cfg.seed+uint64(v), fanout, cfg.seconds/setupRepeats)
		if err != nil {
			t.close()
			return nil, err
		}
		qps = append(qps, closed.goodput())
		allocs = append(allocs, allocMB)
		if v < setupRepeats-1 {
			t.close()
			continue
		}
		heap = heapOf(base, func() {
			t.close()
			t = nil
		})
	}
	o.set("setup_s", median(setups))
	o.set("docs_per_s", float64(corpusDocs)/median(builds))
	o.set("alloc_mb", median(allocs))
	o.set("heap_mb", heap)
	o.set("qps", median(qps))
	o.set("publish_lag_p50_ms", median(lag50))
	o.set("publish_lag_p90_ms", median(lag90))
	fmt.Fprintf(cfg.log, "serving qps=%.0f attempted=%d failed=%d\n", qps, o.attempted, o.failed)
	return o, nil
}

// counters sums named obsv counters across registries.
func counters(regs []*obsv.Registry, names ...string) int64 {
	var n int64
	for _, reg := range regs {
		for _, name := range names {
			n += reg.Counter(name).Value()
		}
	}
	return n
}

var shedCounters = []string{"overload.read.shed", "overload.expensive.shed", "overload.write.shed"}

// queueWait is the summed overload queue-wait histogram across
// registries.
func queueWait(regs []*obsv.Registry) (time.Duration, int64) {
	var sum time.Duration
	var n int64
	for _, reg := range regs {
		for _, c := range overload.Classes {
			h := reg.Histogram("overload." + string(c) + ".queue_wait")
			sum += h.Sum()
			n += h.Count()
		}
	}
	return sum, n
}

// traceServing is the traced serving run: an untraced and a traced
// closed-loop phase (their difference is the tracing overhead), an
// open-loop phase at openLoad of the untraced phase's throughput for the
// latency percentiles and the generator's lateness, and engine replays of
// the traced phase's selections.
func traceServing(cfg runConfig, fanout bool) (*outcome, error) {
	tr := newTracer()
	tr.on.Store(false)
	t, err := setupTopology(cfg.seed, 0, fanout, tr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	o := newOutcome()
	s := sender{t: t, chk: newChecker()}
	phase := cfg.seconds * 3 / 10
	st := streams(cfg.seed, maxClosedPerClient, len(t.pool), fanout)
	plain := closedLoop(context.Background(), clients(), phase, func(w, seq int) bool {
		ok, _ := s.send(st[w][seq%maxClosedPerClient], seq, nil)
		return ok
	})

	hits0 := counters(t.shardReg, "browse.query_cache.hits")
	miss0 := counters(t.shardReg, "browse.query_cache.misses")
	var hedges []string
	for _, n := range shardNames {
		hedges = append(hedges, "cluster.shard."+n+".hedges")
	}
	var coordRegs []*obsv.Registry // fanout only
	if t.coordReg != nil {
		coordRegs = append(coordRegs, t.coordReg)
	}
	hedge0 := counters(coordRegs, hedges...)
	type call struct{ idx, span, size int }
	calls := make([][]call, clients())
	tr.on.Store(true)
	traced := closedLoop(context.Background(), clients(), phase, func(w, seq int) bool {
		idx := st[w][(plain.n+seq)%maxClosedPerClient]
		sp := tr.begin("http."+t.pool[idx].route, -1)
		ok, size := s.send(idx, seq, http.Header{spanHeader: {strconv.Itoa(sp)}})
		tr.end(sp)
		calls[w] = append(calls[w], call{idx, sp, size})
		return ok
	})
	tr.on.Store(false)
	hits := counters(t.shardReg, "browse.query_cache.hits") - hits0
	misses := counters(t.shardReg, "browse.query_cache.misses") - miss0
	hedgeN := counters(coordRegs, hedges...) - hedge0

	rate := openLoad * plain.goodput()
	openDur := cfg.seconds - 2*phase
	seq := picks(cfg.seed, 0, int(rate*openDur.Seconds())+1, len(t.pool), allRoutes, fanout)
	op := openLoop(context.Background(), rate, openDur, clients(), func(i int) bool {
		ok, _ := s.send(seq[i], i, nil)
		return ok
	})
	o.attempted = int64(plain.n + traced.n + op.n)
	o.failed = int64(plain.failed + traced.failed + op.failed)
	if err := setLatency(o, op.lat); err != nil {
		return nil, err
	}

	// Engine replays of the traced selections: warm (the cache holds them
	// after one call) and missing (the cache is reset before each call).
	ix := tr.index()
	warm := map[int]time.Duration{}
	var warmUS, missUS, handlerUS, sizes []float64
	for _, cs := range calls {
		for _, c := range cs {
			sizes = append(sizes, float64(c.size))
			if _, done := warm[c.idx]; done || len(warm) >= 2000 {
				continue
			}
			r := t.pool[c.idx]
			if _, err := answer(t.b.iface, r, false); err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, _ = answer(t.b.iface, r, false) // the same call succeeded above
			warm[c.idx] = time.Since(t0)
			warmUS = append(warmUS, micros(warm[c.idx]))
			t.b.iface.ResetQueryCache()
			t0 = time.Now()
			_, _ = answer(t.b.iface, r, false)
			missUS = append(missUS, micros(time.Since(t0)))
		}
	}
	for _, cs := range calls {
		for _, c := range cs {
			if e, ok := warm[c.idx]; ok && !fanout {
				handlerUS = append(handlerUS, micros(ix.spans[c.span].dur()-e))
			}
		}
	}
	o.set("browse.query.us", median(warmUS))
	o.set("browse.query_miss.us", median(missUS))
	o.set("serve.handler.us", median(handlerUS))
	o.set("serve.response_bytes", median(sizes))
	if hits+misses > 0 {
		o.set("browse.cache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	o.set("overload.shed", float64(counters(t.regs, shedCounters...)))
	if sum, n := queueWait(t.regs); n > 0 {
		o.set("overload.queue_wait_us", micros(sum)/float64(n))
	}
	perReq := func(l loopStats) time.Duration {
		return time.Duration(float64(l.elapsed) * float64(clients()) / float64(l.n))
	}
	o.set("trace.overhead", millis((perReq(traced)-perReq(plain))*time.Duration(traced.n)))
	late, err := percentile(durationsIn(op.late, micros), 0.99)
	if err != nil {
		return nil, err
	}
	o.set("loadgen.late_p99.us", late)
	fmt.Fprintf(cfg.log, "serving closed_qps=%.0f open_rate=%.0f/s\n", plain.goodput(), rate)

	if fanout {
		var rtt, rttMax, coord []float64
		shardSpans, queries := 0, 0
		for _, id := range ix.named("cluster.coordinator") {
			kids := ix.kids(id)
			if len(kids) == 0 {
				continue
			}
			queries++
			shardSpans += len(kids)
			var slowest time.Duration
			for _, k := range kids {
				rtt = append(rtt, micros(k.dur()))
				slowest = max(slowest, k.dur())
			}
			rttMax = append(rttMax, micros(slowest))
			coord = append(coord, micros(ix.spans[id].dur()-slowest))
		}
		o.set("cluster.shard_rtt.us", median(rtt))
		o.set("cluster.shard_rtt_max.us", median(rttMax))
		o.set("cluster.coordinator.us", median(coord))
		if queries > 0 {
			o.set("cluster.subrequests_per_query", float64(shardSpans)/float64(queries))
			o.set("cluster.hedge_ratio", float64(hedgeN)/float64(shardSpans))
		}
	}
	if err := verifyServing(o, t, s.chk, fanout); err != nil {
		return nil, err
	}
	return o, nil
}
