package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/obsv"
	"repro/internal/textdb"
)

const (
	corpusDocs   = 1000 // SNYT documents every workload starts from
	setupRepeats = 3    // serving set-ups per run; setup_s is their median
	buildSetups  = 7    // build set-ups per run: short, so more of them for a steady median
	buildCorpora = 4    // distinct corpora a build run cycles through; each is built at least once
	probeCount   = 16   // fixed probe selections in a build's digest, each on every route
	probePool    = 1024 // distinct selections the probe loop draws from
	probeQueries = 40000
	builderName  = "subsumption"
	envSeed      = 42
)

// inputs are one corpus of a workload's generated inputs: SNYT
// documents from the seed, over the simulated environment. The
// environment stands in for the external services (Wikipedia, WordNet,
// web search), which do not change with the input, so its seed is fixed.
type inputs struct {
	env  *facet.Environment
	docs []facet.Document
}

// makeInputs builds the environment and one corpus per variant; variants
// of one seed are distinct corpora, so a run can spread its repeats over
// several inputs instead of measuring one corpus's quirks.
func makeInputs(seed uint64, variants ...int) ([]*inputs, error) {
	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: envSeed, ChargeLatency: true})
	if err != nil {
		return nil, err
	}
	var out []*inputs
	for _, v := range variants {
		docs, err := env.GenerateNewsCorpus("SNYT", corpusDocs, seed*16+uint64(v)+1)
		if err != nil {
			return nil, err
		}
		out = append(out, &inputs{env: env, docs: docs})
	}
	return out, nil
}

// built is the outcome of one batch build through the facade.
type built struct {
	sys     *facet.System
	res     *facet.Result
	hier    *facet.Hierarchy
	iface   *browse.Interface
	addedAt []time.Time // when each document was added
	done    time.Time   // when the browse engine was ready
	elapsed time.Duration

	// Traced builds only: bytes allocated and virtual network time
	// charged inside BuildHierarchy.
	hierAlloc uint64
	hierNet   time.Duration
}

// buildSpans names the facade spans of a traced build.
const (
	spanAdd         = "facet.add"
	spanExtract     = "facet.extract"
	spanHierarchy   = "facet.build_hierarchy"
	spanBrowseIndex = "browse.index"
)

// buildSystem runs NewSystem → Add → ExtractFacets → BuildHierarchy →
// BrowseEngine with the default resources and the subsumption builder.
// With a tracer it records one span per facade call under parent, and
// the allocation and virtual network time inside BuildHierarchy.
func buildSystem(in *inputs, workers int, reg *obsv.Registry, tr *tracer, parent int) (*built, error) {
	b := &built{addedAt: make([]time.Time, len(in.docs))}
	start := time.Now()
	sp := tr.begin(spanAdd, parent)
	sys, err := facet.NewSystem(in.env, facet.Options{HierarchyBuilder: builderName, Workers: workers})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		sys.SetMetrics(reg)
	}
	for i, d := range in.docs {
		sys.Add(d)
		b.addedAt[i] = time.Now()
	}
	tr.end(sp)
	sp = tr.begin(spanExtract, parent)
	res, err := sys.ExtractFacets()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var m0 runtime.MemStats
	var net0 time.Duration
	if tr != nil {
		runtime.ReadMemStats(&m0)
		net0 = in.env.VirtualNetworkTime()
	}
	sp = tr.begin(spanHierarchy, parent)
	hier, err := res.BuildHierarchy()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		b.hierAlloc = memStats().TotalAlloc - m0.TotalAlloc
		b.hierNet = in.env.VirtualNetworkTime() - net0
	}
	sp = tr.begin(spanBrowseIndex, parent)
	iface, err := res.BrowseEngine(hier)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.done = time.Now()
	b.elapsed = b.done.Sub(start)
	b.sys, b.res, b.hier, b.iface = sys, res, hier, iface
	return b, nil
}

// publishLags returns each document's time from Add until the engine
// holding it was ready, in milliseconds.
func (b *built) publishLags(ready time.Time) []float64 {
	out := make([]float64, len(b.addedAt))
	for i, t := range b.addedAt {
		out[i] = millis(ready.Sub(t))
	}
	return out
}

// probes returns fixed probe requests for an engine, n selections on
// every route: drawn from the seed and the engine's own hierarchy, so
// equal builds get equal probes.
func probes(seed uint64, iface *browse.Interface, n int) ([]request, error) {
	return makeRequests(rand.New(rand.NewSource(int64(seed))), iface, n, allRoutes)
}

// digest fingerprints a build: the ranked facets with their scores, the
// formatted tree, and the engine's answers to the probe set.
func digest(seed uint64, b *built) (string, error) {
	h := sha256.New()
	for _, f := range b.res.Facets {
		fmt.Fprintf(h, "%s\t%d\t%d\t%d\t%d\t%.17g\n", f.Term, f.DF, f.DFC, f.ShiftF, f.ShiftR, f.Score)
	}
	h.Write([]byte(b.hier.FormatTree()))
	ps, err := probes(seed, b.iface, probeCount)
	if err != nil {
		return "", err
	}
	for _, p := range ps {
		body, err := answer(b.iface, p, false)
		if err != nil {
			return "", fmt.Errorf("probe %s: %w", p.path, err)
		}
		h.Write([]byte(p.path))
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// probeLoop answers ps[seq[0]], ps[seq[1]], ... in-process from clients()
// goroutines, closed loop, and returns per-query latencies.
func probeLoop(iface *browse.Interface, ps []request, seq []int) (loopStats, error) {
	workers := clients()
	per := len(seq) / workers
	lat := make([][]time.Duration, workers)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat[w] = make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				t0 := time.Now()
				if _, err := answer(iface, ps[seq[i*workers+w]], false); err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for w := range lat {
		if errs[w] != nil {
			return out, errs[w]
		}
		out.lat = append(out.lat, lat[w]...)
	}
	out.n = len(out.lat)
	return out, nil
}

// probeCorpus runs n probe queries against a build's engine: uniform over
// probePool fixed probe selections of its corpus, routes by the mix.
func probeCorpus(seed uint64, b *built, n int) (loopStats, error) {
	ps, err := probes(seed, b.iface, probePool)
	if err != nil {
		return loopStats{}, err
	}
	return probeLoop(b.iface, ps, picks(seed, 0, n, len(ps), allRoutes, true))
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB is the live heap after full collections, in MB. Two
// collections: the first only moves sync.Pool contents to their victim
// caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(memStats().HeapAlloc) / 1e6
}

// heapOf returns how many MB of live heap release frees: the live heap
// before it minus the live heap once the goroutines it stopped are gone
// (no more than base are left) and pending short timers have fired; the
// coordinator's hedge timers keep its request state reachable for up to
// half a second. release must also drop the caller's references to what
// it frees.
func heapOf(base int, release func()) float64 {
	before := liveHeapMB()
	release()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(time.Second)
	return before - liveHeapMB()
}

func runBuild(cfg runConfig) (*outcome, error) {
	variants := make([]int, buildCorpora)
	for i := range variants {
		variants[i] = i
	}
	var ins []*inputs
	var setups []float64
	for i := 0; i < buildSetups; i++ {
		ins = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if ins, err = makeInputs(cfg.seed, variants...); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return traceBuild(cfg, ins[0])
	}
	o := newOutcome()
	baseHeap := liveHeapMB()
	var secs, allocs, lag50, lag90, rates []float64
	var probes int
	var last *built
	digests := map[int]string{}
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < buildCorpora || time.Now().Before(deadline); i++ {
		last = nil
		runtime.GC()
		before := memStats().TotalAlloc
		b, err := buildSystem(ins[i%buildCorpora], 0, nil, nil, -1)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(memStats().TotalAlloc-before)/1e6)
		secs = append(secs, b.elapsed.Seconds())
		lags := b.publishLags(b.done)
		p50, err := percentile(lags, 0.5)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(lags, 0.9)
		if err != nil {
			return nil, err
		}
		lag50, lag90 = append(lag50, p50), append(lag90, p90)
		o.attempted++
		d, err := digest(cfg.seed, b)
		if err != nil {
			return nil, err
		}
		if want, ok := digests[i%buildCorpora]; !ok {
			digests[i%buildCorpora] = d
			fmt.Fprintf(cfg.log, "digest build corpus=%d %s\n", i%buildCorpora, d)
			// Probe each corpus's engine once, so the query metrics
			// cover every corpus of the run.
			pl, err := probeCorpus(cfg.seed, b, probeQueries/buildCorpora)
			if err != nil {
				return nil, err
			}
			rates = append(rates, pl.goodput())
			probes += pl.n
		} else if d != want {
			o.mismatch("corpus %d rebuilt with digest %s, first build %s", i%buildCorpora, d, want)
		}
		last = b
	}
	heap := liveHeapMB() - baseHeap
	runtime.KeepAlive(last)
	o.attempted += int64(probes)
	o.set("setup_s", median(setups))
	o.set("docs_per_s", float64(corpusDocs)/median(secs))
	o.set("alloc_mb", median(allocs))
	o.set("heap_mb", heap)
	o.set("qps", median(rates))
	o.set("publish_lag_p50_ms", median(lag50))
	o.set("publish_lag_p90_ms", median(lag90))
	fmt.Fprintf(cfg.log, "build builds=%d build_s=%v probe_queries=%d\n", len(secs), secs, probes)
	return o, nil
}

// setLatency reports the p50 and p99 of ds, in microseconds.
func setLatency(o *outcome, ds []time.Duration) error {
	us := durationsIn(ds, micros)
	p50, err := percentile(us, 0.5)
	if err != nil {
		return err
	}
	p99, err := percentile(us, 0.99)
	o.set("p50_us", p50)
	o.set("p99_us", p99)
	return err
}

// timedResource is a timing decorator at the core.Resource seam: every
// lookup is a span under the stage span that issued it.
type timedResource struct {
	core.Resource
	tr     *tracer
	parent int
}

func (r timedResource) Context(term string) []string {
	sp := r.tr.begin("sim."+r.Name(), r.parent)
	defer r.tr.end(sp)
	return r.Resource.Context(term)
}

// traceBuild is the traced build run: one untraced and one traced
// facade build (their digests must agree), the core stages driven
// directly through the system's own extractors and resources, and a
// Workers=1 build whose digest must agree too.
func traceBuild(cfg runConfig, in *inputs) (*outcome, error) {
	o := newOutcome()
	runtime.GC()
	plain, err := buildSystem(in, 0, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	want, err := digest(cfg.seed, plain)
	if err != nil {
		return nil, err
	}
	plainDur := plain.elapsed
	plain = nil
	o.attempted++

	tr := newTracer()
	reg := obsv.NewRegistry()
	runtime.GC()
	m0 := memStats()
	net0 := in.env.VirtualNetworkTime()
	root := tr.begin("build", -1)
	b, err := buildSystem(in, 0, reg, tr, root)
	if err != nil {
		return nil, err
	}
	tracedDur := tr.end(root)
	m1 := memStats()
	o.set("sim.virtual_net_s", (in.env.VirtualNetworkTime() - net0).Seconds())
	o.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	o.set("trace.overhead", millis(tracedDur-plainDur))
	o.set("hierarchy.pairs.evaluated", float64(reg.Counter("hierarchy.pairs.evaluated").Value()))
	o.set("facet.assign.virtual_net_s", b.hierNet.Seconds())
	o.attempted++
	if d, err := digest(cfg.seed, b); err != nil {
		return nil, err
	} else if d != want {
		o.mismatch("traced build digest %s, untraced %s", d, want)
	}

	// The hierarchy builder alone, on the facade's terms and doc rows;
	// what BuildHierarchy spent beyond it is the doc-to-facet assignment.
	hs := tr.begin("hierarchy.build", root)
	a0 := memStats().TotalAlloc
	hb, _ := hierarchy.Lookup(builderName)
	forest, err := hb.Build(context.Background(), b.res.Terms(), b.iface.DocTermRows(), hierarchy.BuildConfig{Workers: runtime.GOMAXPROCS(0)})
	hierOnlyAlloc := memStats().TotalAlloc - a0
	hierOnly := tr.end(hs)
	if err != nil {
		return nil, err
	}
	if hierarchy.FormatTree(forest) != b.hier.FormatTree() {
		o.mismatch("hierarchy builder on the engine's doc rows differs from the facade's tree")
	}
	ix := tr.index()
	facadeHier := ix.spans[ix.named(spanHierarchy)[0]].dur()
	o.set("hierarchy.build.ms", millis(hierOnly))
	o.set("facet.assign.ms", millis(facadeHier-hierOnly))
	o.set("facet.assign.alloc_mb", (float64(b.hierAlloc)-float64(hierOnlyAlloc))/1e6)
	o.set("browse.index.ms", millis(ix.spans[ix.named(spanBrowseIndex)[0]].dur()))
	pl, err := probeCorpus(cfg.seed, b, probeQueries)
	if err != nil {
		return nil, err
	}
	o.attempted += int64(pl.n)
	if err := setLatency(o, pl.lat); err != nil {
		return nil, err
	}

	if err := traceCore(o, in, b, tr); err != nil {
		return nil, err
	}

	runtime.GC()
	one, err := buildSystem(in, 1, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if d, err := digest(cfg.seed, one); err != nil {
		return nil, err
	} else if d != want {
		o.mismatch("Workers=1 build digest %s, Workers=GOMAXPROCS %s", d, want)
	}
	fmt.Fprintf(cfg.log, "digest build corpus=0 %s\n", want)
	return o, nil
}

// traceCore drives the three core stages directly, with the system's own
// extractors and timing-decorated resources, and records a span per stage.
func traceCore(o *outcome, in *inputs, b *built, tr *tracer) error {
	ctx := context.Background()
	corpus := textdb.NewCorpus()
	for _, d := range in.docs {
		corpus.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	}
	root := tr.begin("core", -1)
	defer tr.end(root)

	a0 := memStats().TotalAlloc
	sp := tr.begin("core.identify", root)
	important, _, err := core.IdentifyImportantReport(ctx, corpus, b.sys.CoreExtractors(), 0, 0)
	identify := tr.end(sp)
	if err != nil {
		return err
	}
	a1 := memStats().TotalAlloc

	ctxSpan := tr.begin("core.context", root)
	var resources []core.Resource
	for _, r := range b.sys.CoreResources() {
		resources = append(resources, timedResource{Resource: r, tr: tr, parent: ctxSpan})
	}
	contextTerms, _, _, err := core.DeriveContextFallbackReport(ctx, important, resources, nil, core.NewResourceCache(), 0)
	tr.end(ctxSpan)
	if err != nil {
		return err
	}
	a2 := memStats().TotalAlloc

	var par, seq []float64
	var res *core.Result
	for i := 0; i < 3; i++ {
		sp := tr.begin("core.analyze", root)
		res = core.AnalyzeWith(corpus, contextTerms, 0, core.AnalyzeOptions{Workers: runtime.GOMAXPROCS(0)})
		par = append(par, millis(tr.end(sp)))
		t0 := time.Now()
		core.AnalyzeWith(corpus, contextTerms, 0, core.AnalyzeOptions{Workers: 1})
		seq = append(seq, millis(time.Since(t0)))
	}
	if got, want := fmt.Sprint(res.FacetTermStrings()), fmt.Sprint(b.res.Terms()); got != want {
		o.mismatch("core stages driven directly rank differently from the facade")
	}

	ix := tr.index()
	o.set("core.identify.ms", millis(identify))
	o.set("core.identify.alloc_mb", float64(a1-a0)/1e6)
	o.set("core.context.ms", millis(ix.self(ctxSpan)))
	o.set("core.context.sim_ms", millis(covered(ix.spans[ctxSpan], ix.kids(ctxSpan))))
	o.set("core.context.alloc_mb", float64(a2-a1)/1e6)
	o.set("core.analyze.ms", median(par))
	o.set("core.analyze.speedup", median(seq)/median(par))
	return nil
}
