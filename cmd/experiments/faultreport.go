package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	facet "repro"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/remote"
	"repro/internal/resilient"
	"repro/internal/textdb"
)

// faultReport measures how injected transient faults at the external-
// resource boundary affect the facet output, and what the retry layer
// costs in virtual time to absorb them. For each injected error rate the
// full pipeline runs over an SNYT corpus with every extractor and
// resource wrapped in the fault injector and the resilient retry layer;
// the report shows output stability (Jaccard overlap of the top-K facet
// terms against the fault-free run), the retry traffic, how many
// dependencies degraded past MaxAttempts, and the virtual-clock cost of
// the calls and backoff waits. With retries enabled, low error rates are
// fully absorbed (Jaccard 1.0); stability only erodes once the
// per-lookup chance of exhausting all attempts becomes material.
func faultReport(w io.Writer, seed uint64, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const (
		numDocs     = 250
		topK        = 50
		maxAttempts = 5
		perCall     = 20 * time.Millisecond
	)
	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: seed})
	if err != nil {
		return err
	}
	docs, err := env.GenerateNewsCorpus("SNYT", numDocs, seed+1)
	if err != nil {
		return err
	}
	sys, err := facet.NewSystem(env, facet.Options{TopK: topK, Workers: workers})
	if err != nil {
		return err
	}
	corpus := textdb.NewCorpus()
	for _, d := range docs {
		sys.Add(d)
		corpus.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	}

	type service struct {
		name              string
		attempts, retries int64
		backoff           time.Duration
	}
	type row struct {
		rate     float64
		jaccard  float64
		attempts int64
		retries  int64
		failures int64
		degraded int
		callTime time.Duration
		backoff  time.Duration
		services []service
	}

	runAt := func(rate float64) (map[string]bool, row, error) {
		clock := remote.NewClock()
		inj := remote.NewInjector(seed, clock)
		reg := obsv.NewRegistry()
		rcfg := resilient.Config{
			MaxAttempts: maxAttempts,
			BaseBackoff: 50 * time.Millisecond,
			Seed:        seed,
			Clock:       clock,
			Metrics:     reg,
			// The breaker is disabled so the report isolates the
			// retry/stability trade-off: with it enabled, high rates trip
			// circuits and the measurement becomes outage behaviour.
			Breaker: resilient.BreakerConfig{Threshold: -1},
		}
		var names []string
		var extractors []core.Extractor
		for _, e := range sys.CoreExtractors() {
			names = append(names, e.Name())
			inj.SetFaults(e.Name(), remote.FaultConfig{ErrorRate: rate, Latency: perCall})
			extractors = append(extractors, resilient.WrapExtractor(inj.WrapExtractor(e), rcfg))
		}
		var resources []core.Resource
		for _, r := range sys.CoreResources() {
			names = append(names, r.Name())
			inj.SetFaults(r.Name(), remote.FaultConfig{ErrorRate: rate, Latency: perCall})
			resources = append(resources, resilient.Wrap(inj.WrapResource(r), rcfg))
		}
		p, err := core.New(core.Config{
			Extractors: extractors,
			Resources:  resources,
			TopK:       topK,
			Workers:    workers,
		})
		if err != nil {
			return nil, row{}, err
		}
		res, err := p.RunContext(context.Background(), corpus)
		if err != nil {
			return nil, row{}, err
		}
		terms := map[string]bool{}
		for _, t := range res.FacetTermStrings() {
			terms[t] = true
		}
		r := row{rate: rate, degraded: len(res.Degradations)}
		snap := reg.Snapshot()
		for _, n := range names {
			sv := service{
				name:     n,
				attempts: snap.Counters["resilient."+n+".attempts"],
				retries:  snap.Counters["resilient."+n+".retries"],
				backoff:  clock.ServiceElapsed("backoff:" + n),
			}
			r.services = append(r.services, sv)
			r.attempts += sv.attempts
			r.retries += sv.retries
			r.failures += snap.Counters["resilient."+n+".failures"]
			r.backoff += sv.backoff
		}
		r.callTime = clock.Elapsed() - r.backoff
		return terms, r, nil
	}

	baseline, base, err := runAt(0)
	if err != nil {
		return err
	}
	base.jaccard = 1
	rows := []row{base}
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		terms, r, err := runAt(rate)
		if err != nil {
			return err
		}
		r.jaccard = jaccard(terms, baseline)
		rows = append(rows, r)
	}

	fmt.Fprintf(w, "SNYT %d docs, top-%d facet terms, MaxAttempts=%d, per-call virtual latency %v\n\n",
		numDocs, topK, maxAttempts, perCall)
	fmt.Fprintf(w, "%-6s  %-10s  %9s  %8s  %9s  %9s  %13s  %13s\n",
		"rate", "jaccard@K", "attempts", "retries", "failures", "degraded", "call time", "backoff time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.2f  %-10.3f  %9d  %8d  %9d  %9d  %13v  %13v\n",
			r.rate, r.jaccard, r.attempts, r.retries, r.failures, r.degraded,
			r.callTime.Round(time.Millisecond), r.backoff.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "\njaccard@K: overlap of the top-K facet terms with the fault-free run;")
	fmt.Fprintln(w, "degraded: dependencies whose failures exhausted every retry for some lookup;")
	fmt.Fprintln(w, "call/backoff time: virtual-clock cost of delivered attempts and retry waits.")

	// A second view: which services paid the most retry traffic at the
	// highest rate, per service.
	last := rows[len(rows)-1]
	sort.Slice(last.services, func(i, j int) bool { return last.services[i].name < last.services[j].name })
	fmt.Fprintf(w, "\nper-service retry traffic at rate %.2f:\n", last.rate)
	fmt.Fprintf(w, "%-24s  %9s  %8s  %13s\n", "service", "attempts", "retries", "backoff time")
	for _, sv := range last.services {
		fmt.Fprintf(w, "%-24s  %9d  %8d  %13v\n", sv.name, sv.attempts, sv.retries, sv.backoff.Round(time.Millisecond))
	}
	return nil
}

// jaccard computes |a ∩ b| / |a ∪ b| over term sets.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
