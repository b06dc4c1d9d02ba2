package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/browse"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/resilient"
	"repro/internal/serve"
)

// Peer names one shard server the coordinator fans out to.
type Peer struct {
	Name    string // ring name, reported in degradation envelopes
	BaseURL string // e.g. http://10.0.0.3:8081 (no trailing slash)
}

// ParsePeers parses the -peers flag syntax "name=url,name=url".
func ParsePeers(raw string) ([]Peer, error) {
	var out []Peer
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want name=url)", part)
		}
		out = append(out, Peer{Name: name, BaseURL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", raw)
	}
	return out, nil
}

// Config parameterizes a Coordinator.
type Config struct {
	// Timeout is the per-shard deadline for one scattered sub-query,
	// covering both the primary and any hedged attempt. 0 selects 2s.
	Timeout time.Duration
	// HedgeDelay is how long the primary attempt may run before a
	// backup attempt is launched in parallel (the hedge); whichever
	// returns first wins. A primary that FAILS before the delay triggers
	// the backup immediately. 0 selects Timeout/4.
	HedgeDelay time.Duration
	// Breaker configures the per-shard circuit breaker; a shard whose
	// breaker is open is skipped without a request (and reported in the
	// degradation envelope) until its cooldown admits a probe.
	Breaker resilient.BreakerConfig
	// Client issues the shard requests; nil selects http.DefaultClient.
	Client *http.Client
	// Governor, when set, applies per-class adaptive admission control
	// to the coordinator's public routes (reads vs. expensive cross-
	// tabulations), the same policy internal/serve applies on a single
	// node. Nil serves unthrottled.
	Governor *overload.Governor
	// Metrics, when set, receives cluster.fanout_latency and
	// cluster.merge_latency histograms, per-shard
	// cluster.shard.<name>.{errors,hedges} counters and breaker-state
	// gauges, and the cluster.degraded_responses counter. The registry
	// is also what GET /api/v1/metrics on the coordinator serves.
	Metrics *obsv.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = cfg.Timeout / 4
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewRegistry()
	}
	return cfg
}

// shardClient is the coordinator's view of one shard: its breaker, its
// error counters, and the last epoch it reported.
type shardClient struct {
	name    string
	baseURL string
	br      *resilient.Breaker
	client  *http.Client
	errs    *obsv.Counter
	hedges  *obsv.Counter
}

// Coordinator fans browse queries out to every shard, merges the
// partial answers, and serves the same public /api/v1/ routes as a
// single node — byte-identically when all shards answer, and with an
// explicit "degraded" report naming the missing shards when some don't.
// It is built on the node's router, so metrics, probes, the 404/405
// fallback and the middleware stack are the node's own.
type Coordinator struct {
	*serve.Router
	cfg    Config
	shards []*shardClient

	fanout     *obsv.Histogram
	merge      *obsv.Histogram
	degraded   *obsv.Counter
	budgetShed *obsv.Counter
}

// NewCoordinator builds a coordinator over the given shard peers.
func NewCoordinator(peers []Peer, cfg Config) (*Coordinator, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard peer")
	}
	cfg = cfg.withDefaults()
	seen := map[string]bool{}
	c := &Coordinator{
		Router:     serve.NewRouter(serve.WithMetrics(cfg.Metrics), serve.WithOverload(cfg.Governor)),
		cfg:        cfg,
		fanout:     cfg.Metrics.Histogram("cluster.fanout_latency"),
		merge:      cfg.Metrics.Histogram("cluster.merge_latency"),
		degraded:   cfg.Metrics.Counter("cluster.degraded_responses"),
		budgetShed: cfg.Metrics.Counter("cluster.budget_shed"),
	}
	for _, p := range peers {
		if p.Name == "" || p.BaseURL == "" {
			return nil, fmt.Errorf("cluster: peer needs name and url (got %+v)", p)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		sc := &shardClient{
			name:    p.Name,
			baseURL: strings.TrimRight(p.BaseURL, "/"),
			br:      resilient.NewBreaker(cfg.Breaker, cfg.Metrics.Counter("cluster.shard."+p.Name+".trips").Inc),
			client:  cfg.Client,
			errs:    cfg.Metrics.Counter("cluster.shard." + p.Name + ".errors"),
			hedges:  cfg.Metrics.Counter("cluster.shard." + p.Name + ".hedges"),
		}
		br := sc.br
		cfg.Metrics.GaugeFunc("cluster.shard."+p.Name+".breaker_state", func() int64 {
			return int64(br.State())
		})
		// Readiness follows the breakers: the coordinator still SERVES
		// partial results while a shard is out, so readyz is the
		// operator's signal, not a traffic gate.
		c.AddReadiness(p.Name, func() error {
			if st := br.State(); st != resilient.Closed {
				return fmt.Errorf("breaker %s", st)
			}
			return nil
		})
		c.shards = append(c.shards, sc)
	}
	c.HandleQuery("facets", c.handleFacets)
	c.HandleQuery("docs", c.handleDocs)
	c.HandleQuery("dates", c.handleDates)
	c.HandleQuery("cross", c.handleCross)
	return c, nil
}

// admitBudget enforces deadline propagation at the cheapest possible
// point: when the caller's budget is already spent, fanning out would
// buy nothing — every shard reply would arrive past the deadline — so
// the coordinator sheds before issuing a single sub-request.
func (c *Coordinator) admitBudget(w http.ResponseWriter, r *http.Request) bool {
	remaining, ok := serve.RemainingBudget(r.Context())
	if !ok || remaining > 0 {
		return true
	}
	c.budgetShed.Inc()
	serve.WriteShed(w, http.StatusServiceUnavailable, 1,
		fmt.Errorf("deadline budget spent before fan-out"))
	return false
}

// --- scatter ---

// maxShardResponse bounds one shard reply (a merge cannot be asked to
// buffer an unbounded body).
const maxShardResponse = 64 << 20

// shardReply is one shard's answer (or failure) to a scattered
// sub-query.
type shardReply struct {
	name   string
	body   []byte
	status int
	err    error
}

// scatter fans pathAndQuery out to every shard concurrently and waits
// for all of them (each bounded by the per-shard deadline). Replies
// come back in peer order; failed shards carry err and are summarized
// in the returned Degradation (nil when every shard answered).
func (c *Coordinator) scatter(ctx context.Context, pathAndQuery string) ([]shardReply, *Degradation) {
	start := time.Now()
	replies := make([]shardReply, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			body, status, err := c.fetch(ctx, sc, pathAndQuery)
			replies[i] = shardReply{name: sc.name, body: body, status: status, err: err}
		}(i, sc)
	}
	wg.Wait()
	c.fanout.Observe(time.Since(start))
	var degr *Degradation
	for _, rep := range replies {
		if rep.err != nil {
			if degr == nil {
				degr = &Degradation{ShardsTotal: len(c.shards), Errors: map[string]string{}}
			}
			degr.MissingShards = append(degr.MissingShards, rep.name)
			degr.Errors[rep.name] = rep.err.Error()
		}
	}
	if degr != nil {
		c.degraded.Inc()
	}
	return replies, degr
}

// fetch runs one shard sub-query under the hedging policy: a primary
// attempt, plus a backup launched either when the primary fails fast or
// when HedgeDelay elapses without an answer (tail-latency hedging);
// the first success wins. Every attempt passes through the shard's
// circuit breaker, so a dead shard is shed without a connection once
// the breaker opens, and probed again after its cooldown.
func (c *Coordinator) fetch(ctx context.Context, sc *shardClient, pathAndQuery string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	type result struct {
		body   []byte
		status int
		err    error
	}
	ch := make(chan result, 2) // both attempts can always deliver
	attempt := func() {
		body, status, err := sc.get(ctx, pathAndQuery)
		ch <- result{body, status, err}
	}
	launch := func() bool {
		if err := sc.br.Allow(); err != nil {
			return false
		}
		go attempt()
		return true
	}
	if !launch() {
		if sc.errs != nil {
			sc.errs.Inc()
		}
		return nil, 0, resilient.ErrOpen
	}
	outstanding, hedged := 1, false
	hedge := func() {
		if hedged {
			return
		}
		hedged = true
		if launch() {
			outstanding++
			sc.hedges.Inc()
		}
	}
	var lastErr error
	timerC := time.After(c.cfg.HedgeDelay)
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil && res.status < http.StatusInternalServerError {
				sc.br.Success()
				return res.body, res.status, nil
			}
			sc.br.Failure()
			sc.errs.Inc()
			if res.err != nil {
				lastErr = res.err
			} else {
				lastErr = fmt.Errorf("shard %s: HTTP %d", sc.name, res.status)
			}
			// A fast failure is a better hedge trigger than the timer.
			hedge()
			if outstanding == 0 {
				return nil, 0, lastErr
			}
		case <-timerC:
			timerC = nil
			hedge()
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
}

// get issues one HTTP attempt against the shard. When the scattered
// context carries a deadline — the caller's propagated budget and/or
// the per-shard timeout, whichever is nearer — the attempt forwards the
// REMAINING budget in X-Deadline-Budget, so the shard sheds its own
// work the moment the coordinator would no longer accept the answer.
// Hedged retries pass through here too: a hedge launched later encodes
// a smaller remaining budget, charging the hedge against the same
// allowance instead of granting it a fresh one.
func (sc *shardClient) get(ctx context.Context, pathAndQuery string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sc.baseURL+pathAndQuery, nil)
	if err != nil {
		return nil, 0, err
	}
	if remaining, ok := serve.RemainingBudget(ctx); ok {
		if remaining <= 0 {
			return nil, 0, context.DeadlineExceeded
		}
		req.Header.Set(overload.BudgetHeader, overload.FormatBudget(remaining))
	}
	resp, err := sc.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

// --- merge + routes ---

// Degradation is the partial-results report attached to a coordinator
// response when some shards did not answer: the client sees which part
// of the corpus the counts are missing, instead of an opaque error or —
// worse — silently low numbers.
type Degradation struct {
	ShardsTotal   int               `json:"shards_total"`
	MissingShards []string          `json:"missing_shards"`
	Errors        map[string]string `json:"errors,omitempty"`
}

// FacetsResponse is the coordinator's /api/v1/facets payload: the
// single-node shape plus the optional degradation report (absent —
// byte-identical to single-node — when every shard answered).
type FacetsResponse struct {
	serve.FacetsResponse
	Degraded *Degradation `json:"degraded,omitempty"`
}

// DocsResponse is the coordinator's /api/v1/docs payload.
type DocsResponse struct {
	serve.DocsResponse
	Degraded *Degradation `json:"degraded,omitempty"`
}

// DatesResponse is the coordinator's /api/v1/dates payload. The
// single-node route answers with a bare bucket array, so the degraded
// form wraps it only when the report is present.
type DatesResponse struct {
	Buckets  []serve.DateBucket `json:"buckets"`
	Degraded *Degradation       `json:"degraded"`
}

// CrossResponse is the coordinator's /api/v1/cross payload.
type CrossResponse struct {
	browse.CrossTab
	Degraded *Degradation `json:"degraded,omitempty"`
}

// gather is the front half every scatter-gather route shares, run on a
// request the router has already validated exactly as a single node
// would: shed a spent deadline budget, scatter the client's raw query
// string to shardPath on every shard, then relay a shard's client error
// or decode every answer. ok=false means the response is already
// written; otherwise the route merges parts and writes it, attaching
// degr.
func gather[T any](c *Coordinator, w http.ResponseWriter, r *http.Request, shardPath string) (parts []T, degr *Degradation, ok bool) {
	if !c.admitBudget(w, r) {
		return nil, nil, false
	}
	replies, degr := c.scatter(r.Context(), shardPath+"?"+r.URL.RawQuery)
	if degr != nil && len(degr.MissingShards) == len(c.shards) {
		c.allShardsDown(w, degr)
		return nil, nil, false
	}
	// A shard that answered with a non-2xx, non-5xx status (e.g. 400 bad
	// granularity: every shard validates with the same code, so any one
	// speaks for all) is relayed verbatim. Transport failures were
	// already folded into the degradation report.
	for _, rep := range replies {
		if rep.err != nil {
			continue
		}
		if rep.status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rep.status)
			_, _ = w.Write(rep.body)
			return nil, nil, false
		}
		var v T
		if err := json.Unmarshal(rep.body, &v); err != nil {
			serve.WriteError(w, http.StatusBadGateway, serve.ErrCodeUnavailable,
				fmt.Errorf("shard %s: undecodable reply: %v", rep.name, err))
			return nil, nil, false
		}
		parts = append(parts, v)
	}
	return parts, degr, true
}

// allShardsDown writes the full-outage error: partial results need at
// least one shard.
func (c *Coordinator) allShardsDown(w http.ResponseWriter, degr *Degradation) {
	msgs := make([]string, 0, len(degr.MissingShards))
	for _, name := range degr.MissingShards {
		msgs = append(msgs, name+": "+degr.Errors[name])
	}
	serve.WriteError(w, http.StatusServiceUnavailable, serve.ErrCodeUnavailable,
		fmt.Errorf("all %d shards unreachable: %s", degr.ShardsTotal, strings.Join(msgs, "; ")))
}

func (c *Coordinator) handleFacets(w http.ResponseWriter, r *http.Request, q serve.Query) {
	parts, degr, ok := gather[ShardFacets](c, w, r, "/api/v1/cluster/facets")
	if !ok {
		return
	}
	start := time.Now()
	total := 0
	counts := map[string]int{}
	for _, p := range parts {
		total += p.Total
		for _, fc := range p.Facets {
			counts[fc.Term] += fc.Count
		}
	}
	merged := make([]browse.FacetCount, 0, len(counts))
	for term, count := range counts {
		merged = append(merged, browse.FacetCount{Term: term, Count: count})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return merged[i].Term < merged[j].Term
	})
	if len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	if len(merged) == 0 {
		merged = nil // single node emits null, not [], for no facets
	}
	c.merge.Observe(time.Since(start))
	serve.WriteJSON(w, FacetsResponse{
		FacetsResponse: serve.FacetsResponse{
			Parent: q.Parent,
			Total:  total,
			Facets: merged,
		},
		Degraded: degr,
	})
}

func (c *Coordinator) handleDocs(w http.ResponseWriter, r *http.Request, q serve.Query) {
	parts, degr, ok := gather[ShardDocs](c, w, r, "/api/v1/cluster/docs")
	if !ok {
		return
	}
	start := time.Now()
	resp := DocsResponse{Degraded: degr}
	var docs []serve.DocSummary
	for _, p := range parts {
		resp.Total += p.Total
		docs = append(docs, p.Docs...)
	}
	// Shards return ascending global ids over disjoint id sets, so the
	// global first `limit` ids are contained in the concatenation.
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	if len(docs) > q.Limit {
		docs = docs[:q.Limit]
	}
	resp.Docs = docs
	c.merge.Observe(time.Since(start))
	serve.WriteJSON(w, resp)
}

// handleDates merges the shards' own public /dates answers: each is
// the histogram over that shard's slice.
func (c *Coordinator) handleDates(w http.ResponseWriter, r *http.Request, _ serve.Query) {
	parts, degr, ok := gather[[]serve.DateBucket](c, w, r, "/api/v1/dates")
	if !ok {
		return
	}
	start := time.Now()
	counts := map[string]int{}
	for _, p := range parts {
		for _, b := range p {
			counts[b.Bucket] += b.Count
		}
	}
	merged := make([]serve.DateBucket, 0, len(counts))
	for bucket, count := range counts {
		merged = append(merged, serve.DateBucket{Bucket: bucket, Count: count})
	}
	// Buckets are "2006-01-02" strings: lexicographic IS chronological.
	sort.Slice(merged, func(i, j int) bool { return merged[i].Bucket < merged[j].Bucket })
	c.merge.Observe(time.Since(start))
	if degr == nil {
		// Byte-compatible with the single node, which serves a bare array.
		serve.WriteJSON(w, merged)
		return
	}
	serve.WriteJSON(w, DatesResponse{Buckets: merged, Degraded: degr})
}

// handleCross sums the shards' own public /cross answers. Row and
// column terms come from the shared hierarchy, so every shard reports
// the same axes and the cells sum.
func (c *Coordinator) handleCross(w http.ResponseWriter, r *http.Request, _ serve.Query) {
	parts, degr, ok := gather[browse.CrossTab](c, w, r, "/api/v1/cross")
	if !ok {
		return
	}
	start := time.Now()
	resp := CrossResponse{Degraded: degr}
	for i, p := range parts {
		if i == 0 {
			resp.RowTerms = p.RowTerms
			resp.ColTerms = p.ColTerms
			resp.Cells = make([][]int, len(p.RowTerms))
			for row := range resp.Cells {
				resp.Cells[row] = make([]int, len(p.ColTerms))
			}
		} else if !sameTerms(resp.RowTerms, p.RowTerms) || !sameTerms(resp.ColTerms, p.ColTerms) {
			// Shards disagree on the hierarchy axes — an epoch skew
			// mid-rollout. Summing mismatched matrices would be silently
			// wrong, so fail loudly instead.
			serve.WriteError(w, http.StatusServiceUnavailable, serve.ErrCodeUnavailable,
				fmt.Errorf("shards report different cross axes (epoch skew); retry after the rollout settles"))
			return
		}
		for row := range p.Cells {
			for col := range p.Cells[row] {
				resp.Cells[row][col] += p.Cells[row][col]
			}
		}
	}
	c.merge.Observe(time.Since(start))
	serve.WriteJSON(w, resp)
}

func sameTerms(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
