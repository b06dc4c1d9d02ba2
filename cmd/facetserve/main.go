// Command facetserve builds a faceted browsing interface over a news
// archive and serves it over HTTP: a server-rendered front end at /, a
// versioned JSON API under /api/v1/ (facets, docs, dates, cross,
// metrics; the deprecated unversioned /api/ aliases have been removed
// and now answer 404), and — with -live — streaming document intake
// with incremental facet rebuilds.
//
// Observability: GET /api/v1/metrics returns a JSON snapshot of every
// counter, gauge, and latency histogram (per-route HTTP metrics, ingest
// queue/epoch state, segment-store timing); -pprof additionally mounts
// the runtime profiler under /debug/pprof/; -access-log writes one JSON
// line per request to stderr.
//
// Batch mode (default) generates a corpus, extracts facets once, and
// serves the frozen interface:
//
//	facetserve [-addr :8080] [-docs 600] [-profile SNYT] [-seed 42]
//
// Live mode turns the server into a long-running ingestion service:
// documents POSTed to /api/v1/ingest stream through the extraction pipeline,
// the hierarchy is rebuilt every -epoch-docs documents (or -max-staleness
// interval), and the browsing interface is swapped atomically with zero
// downtime. With -store, accepted documents are durably persisted as
// append-only segments and a restarted server warm-starts from disk:
//
//	facetserve -live [-store DIR] [-epoch-docs 200] [-max-staleness 30s]
//
// Shutdown on SIGINT/SIGTERM is graceful: HTTP stops accepting, the
// intake queue drains, and a final epoch publishes and persists every
// accepted document before exit.
//
// Cluster mode (-role) scales serving beyond one process:
//
//	facetserve -role=shard -shard-name=a -cluster-shards=a,b,c   # one partition
//	facetserve -role=coordinator -peers=a=http://h1,b=http://h2,c=http://h3
//	facetserve -role=leader -snapshot state.fsnp                 # ships epochs
//	facetserve -role=replica -peers=http://leader:8080           # pulls epochs
//
// Shards build the same deterministic corpus and hierarchy, slice it by
// the consistent-hash ring, and serve their partition; the coordinator
// scatter-gathers across them and answers byte-identically to a single
// node (degrading explicitly when shards are down). A leader serves the
// whole corpus and ships each published epoch's snapshot bytes; replicas
// pull, rehydrate, and swap atomically, reporting replication lag via
// /api/v1/readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/textdb"
)

// hardening carries the http.Server protection knobs: without explicit
// timeouts a single slow-loris client (or a stalled read) holds a
// connection and its goroutine forever, which is exactly the unbounded
// pile-up the overload work exists to prevent.
type hardening struct {
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	maxHeaderBytes    int
}

// server builds a hardened http.Server around handler.
func (h hardening) server(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: h.readHeaderTimeout,
		ReadTimeout:       h.readTimeout,
		WriteTimeout:      h.writeTimeout,
		IdleTimeout:       h.idleTimeout,
		MaxHeaderBytes:    h.maxHeaderBytes,
	}
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	docs := flag.Int("docs", 600, "number of documents to generate")
	profile := flag.String("profile", "SNYT", "dataset profile")
	seed := flag.Uint64("seed", 42, "seed")
	topK := flag.Int("topk", 120, "facet terms to extract")
	resources := flag.String("resources", "", "comma-separated context resources (Google, WordNet Hypernyms, Wikipedia Synonyms, Wikipedia Graph, Distributional; alias corpus = corpus-only mode); empty = the four external ones")
	corpusFallback := flag.Bool("corpus-fallback", false, "degraded-fallback: when every external resource fails a lookup, fall back to a corpus-only distributional model instead of running context-free")
	hierarchyBuilder := flag.String("hierarchy", "", "hierarchy builder registry name (subsumption, evidence, treemin, agglomerative; \"\" = subsumption); live mode rebuilds every epoch with it")
	live := flag.Bool("live", false, "enable streaming ingestion (POST /api/v1/ingest) with incremental rebuilds")
	storeDir := flag.String("store", "", "segment store directory for durable intake (live mode; empty = in-memory only)")
	epochDocs := flag.Int("epoch-docs", 200, "rebuild the hierarchy after this many new documents (live mode)")
	maxStaleness := flag.Duration("max-staleness", 30*time.Second, "also rebuild when intake has waited this long (live mode; 0 disables)")
	queueSize := flag.Int("queue", 1024, "bounded intake queue capacity (live mode)")
	cacheSize := flag.Int("cache", 4096, "resource LRU cache entries (live mode)")
	pprofOn := flag.Bool("pprof", false, "mount the runtime profiler under /debug/pprof/")
	accessLog := flag.Bool("access-log", false, "write one JSON access-log line per request to stderr")
	snapPath := flag.String("snapshot", "", "serving-state snapshot file: batch mode warm-starts from it when present (skipping the pipeline) and writes it after a cold build; live mode rewrites it after every published epoch")
	role := flag.String("role", "", "cluster role: empty (single node), shard, coordinator, leader, or replica")
	peersRaw := flag.String("peers", "", "coordinator: shard peers as name=url,name=url; replica: the leader's base URL")
	shardName := flag.String("shard-name", "", "this shard's ring name (role=shard)")
	clusterShards := flag.String("cluster-shards", "", "comma-separated ring membership, identical on every shard (role=shard)")
	shardTimeout := flag.Duration("shard-timeout", 2*time.Second, "coordinator: per-shard fan-out deadline (hedged retry fires at a quarter of it)")
	pollInterval := flag.Duration("poll-interval", 2*time.Second, "replica: snapshot poll cadence")
	maxLag := flag.Uint64("max-lag", 1, "replica: replication lag in epochs beyond which readyz fails")
	overloadOn := flag.Bool("overload", true, "adaptive admission control: per-class concurrency limits (AIMD on observed latency) shedding excess load as 429/503 + Retry-After")
	overloadLimit := flag.Int("overload-limit", 0, "initial concurrency limit per admission class (0 = per-class defaults: read 64, expensive 8, write 16)")
	overloadQueue := flag.Int("overload-queue", 0, "bounded admission wait-queue length per class (0 = per-class defaults; queued requests shed when their deadline budget fires)")
	hard := hardening{}
	flag.DurationVar(&hard.readHeaderTimeout, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (closes slowloris connections)")
	flag.DurationVar(&hard.readTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout (full request including body)")
	flag.DurationVar(&hard.writeTimeout, "write-timeout", 60*time.Second, "http.Server WriteTimeout (full response)")
	flag.DurationVar(&hard.idleTimeout, "idle-timeout", 120*time.Second, "http.Server IdleTimeout (keep-alive connections)")
	flag.IntVar(&hard.maxHeaderBytes, "max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	flag.Parse()

	// One registry spans every layer: HTTP routes, the ingester, and the
	// segment store all surface through GET /api/v1/metrics.
	metrics := obsv.NewRegistry()
	serveOpts := []serve.Option{serve.WithMetrics(metrics)}
	// debug turns on the opt-in operator surfaces of whichever router
	// the role serves.
	debug := func(rt *serve.Router) {
		if *accessLog {
			rt.SetAccessLog(os.Stderr)
		}
		if *pprofOn {
			rt.EnablePprof()
		}
	}

	// Admission control: one governor per process, shared by every route
	// class. -overload-limit / -overload-queue override the starting point
	// uniformly; the AIMD loop re-learns the real capacity either way.
	var gov *overload.Governor
	if *overloadOn {
		gcfg := overload.GovernorConfig{Metrics: metrics}
		if *overloadLimit > 0 {
			gcfg.Read.InitialLimit = *overloadLimit
			gcfg.Expensive.InitialLimit = *overloadLimit
			gcfg.Write.InitialLimit = *overloadLimit
		}
		if *overloadQueue > 0 {
			gcfg.Read.Queue = *overloadQueue
			gcfg.Expensive.Queue = *overloadQueue
			gcfg.Write.Queue = *overloadQueue
		}
		gov = overload.NewGovernor(gcfg)
		serveOpts = append(serveOpts, serve.WithOverload(gov))
	}

	// Cluster roles that never build a corpus dispatch immediately; shard
	// and leader fall through to the normal build paths and adjust what
	// gets served at the end.
	cl := &clusterOpts{role: *role, name: *shardName, shards: *clusterShards,
		profile: *profile, seed: *seed, metrics: metrics}
	switch *role {
	case "", "shard", "leader":
	case "coordinator":
		runCoordinator(*addr, *peersRaw, *shardTimeout, metrics, gov, debug, hard)
		return
	case "replica":
		runReplica(*addr, *peersRaw, *pollInterval, *maxLag, metrics, serveOpts, debug, hard)
		return
	default:
		log.Fatalf("unknown -role %q (want shard, coordinator, leader, or replica)", *role)
	}
	if *role == "shard" {
		if *live {
			log.Fatal("-role=shard is incompatible with -live: shards slice a frozen epoch; use a leader with replicas for live serving")
		}
		if *shardName == "" || *clusterShards == "" {
			log.Fatal("-role=shard needs -shard-name and -cluster-shards")
		}
	}

	// Batch warm start: a loadable snapshot replaces corpus generation AND
	// the extraction pipeline entirely — rehydrate, serve, and deep-verify
	// the posting lists in the background.
	if !*live && *snapPath != "" {
		if iface, snap, err := snapshot.LoadBrowse(*snapPath, metrics); err == nil {
			title := fmt.Sprintf("%s archive — %d stories, %d facet terms (snapshot)", snap.Meta.Profile, len(snap.Docs), len(snap.Facets))
			log.Printf("warm start: %s (%d docs, %d posting lists, epoch %d); pipeline skipped", *snapPath, len(snap.Docs), len(snap.Postings), snap.Meta.Epoch)
			go validateSnapshot(snap, *snapPath, metrics)
			serveFrozen(iface, title, *addr, serveOpts, debug, cl, hard)
			return
		} else if !errors.Is(err, os.ErrNotExist) {
			log.Printf("snapshot %s unusable (%v); rebuilding from the pipeline", *snapPath, err)
		}
	}

	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	// Assemble the initial document set: warm-start from the segment
	// store when it already holds documents, generate otherwise.
	var store *textdb.Store
	var initial []facet.Document
	warmStart := false
	if *live && *storeDir != "" {
		if store, err = textdb.OpenStore(*storeDir); err != nil {
			log.Fatal(err)
		}
		store.SetMetrics(metrics)
		if orphans, err := store.OrphanSegments(); err == nil && len(orphans) > 0 {
			log.Printf("note: %d orphan segment(s) in %s from an interrupted append", len(orphans), *storeDir)
		}
		if store.Docs() > 0 {
			corpus, err := store.LoadAll()
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < corpus.Len(); i++ {
				d := corpus.Doc(textdb.DocID(i))
				initial = append(initial, facet.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
			}
			warmStart = true
			log.Printf("warm-starting from %s: %d documents in %d segments", *storeDir, store.Docs(), store.Segments())
		}
	}
	if !warmStart && *docs > 0 {
		if initial, err = env.GenerateNewsCorpus(*profile, *docs, *seed+1); err != nil {
			log.Fatal(err)
		}
	}

	opts := facet.Options{TopK: *topK, HierarchyBuilder: *hierarchyBuilder, CorpusFallback: *corpusFallback}
	if *resources != "" {
		opts.Resources = strings.Split(*resources, ",")
	}
	sys, err := facet.NewSystem(env, opts)
	if err != nil {
		log.Fatal(err)
	}
	sys.SetMetrics(metrics) // pipeline stage timings land in /api/v1/metrics
	for _, d := range initial {
		sys.Add(d)
	}

	if !*live {
		serveBatch(sys, *addr, *profile, *seed, *snapPath, metrics, serveOpts, debug, cl, hard)
		return
	}

	ing, err := ingest.New(ingest.Config{
		Extractors:       sys.CoreExtractors(),
		Resources:        sys.CoreResources(),
		Fallback:         sys.CoreFallback(),
		TopK:             *topK,
		Taxonomy:         sys.CoreTaxonomy(),
		HierarchyBuilder: *hierarchyBuilder,
		QueueSize:        *queueSize,
		EpochDocs:        *epochDocs,
		MaxStaleness:     *maxStaleness,
		CacheSize:        *cacheSize,
		Store:            store,
		Logf:             log.Printf,
		Metrics:          metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	bootstrap := make([]*textdb.Document, len(initial))
	for i, d := range initial {
		bootstrap[i] = &textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
	}
	log.Printf("bootstrapping live pipeline over %d documents...", len(bootstrap))
	if err := ing.Bootstrap(bootstrap, !warmStart); err != nil {
		log.Fatal(err)
	}

	title := fmt.Sprintf("%s live archive — streaming ingestion enabled", *profile)
	srv := serve.New(ing.Current(), title, serveOpts...)
	srv.EnableIngest(ing)
	debug(srv.Router)
	var ship *cluster.Shipper
	if *role == "leader" {
		// A live leader ships every published epoch to pulling replicas;
		// the endpoint must be mounted before traffic starts.
		ship = cluster.NewShipper(*profile, *seed, metrics)
		ship.Register(srv)
		if err := ship.Publish(ing.Current()); err != nil {
			log.Fatal(err)
		}
		log.Printf("leader: shipping epochs at /api/v1/cluster/snapshot")
	}
	publish := srv.Publish
	if *snapPath != "" {
		// Persist the serving state after every swap: the save is atomic
		// (temp + rename), so a reader never observes a torn snapshot, and
		// a crashed server's last published epoch survives for a batch-mode
		// warm start. Epoch zero (the bootstrap build) is saved here too.
		saveEpoch := func(iface *browse.Interface) {
			snap := snapshot.Capture(iface, snapshot.Meta{
				Epoch: iface.Epoch(), Profile: *profile, Seed: *seed,
				CreatedUnixNano: time.Now().UnixNano(),
			}, nil)
			if err := snapshot.Save(*snapPath, snap, metrics); err != nil {
				log.Printf("snapshot save (epoch %d): %v", iface.Epoch(), err)
			}
		}
		saveEpoch(ing.Current())
		publish = func(iface *browse.Interface) {
			srv.Publish(iface)
			saveEpoch(iface)
		}
	}
	if ship != nil {
		inner := publish
		publish = func(iface *browse.Interface) {
			inner(iface)
			if err := ship.Publish(iface); err != nil {
				log.Printf("snapshot ship (epoch %d): %v", iface.Epoch(), err)
			}
		}
	}
	ing.SetOnPublish(publish) // every epoch swaps the served interface
	ing.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := hard.server(srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ctx cancels the instant the signal lands, so main must wait on this
	// channel — not ctx — or it exits while Close is still persisting the
	// final epoch.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Printf("shutting down: draining intake and finishing the epoch...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		if err := ing.Close(shutdownCtx); err != nil {
			log.Printf("ingest close: %v", err)
		}
	}()
	st := ing.Stats()
	log.Printf("serving %s (%d docs, %d facet terms)", title, st.DocsPublished, st.FacetTerms)
	log.Printf("listening on http://%s", ln.Addr())
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
	log.Printf("shutdown complete: %d documents ingested, %d persisted", ing.Stats().DocsIngested, ing.Stats().PersistedDocs)
}

// clusterOpts carries the -role flags into the serving tail: shards and
// leaders build the full corpus like any batch node, then change what is
// actually served.
type clusterOpts struct {
	role    string // "", "shard", or "leader" by the time it reaches serveFrozen
	name    string // -shard-name
	shards  string // -cluster-shards
	profile string
	seed    uint64
	metrics *obsv.Registry
}

// serveForever listens explicitly and logs the bound address before
// serving — with -addr :0 (tests, multi-process smoke runs) the log line
// is how callers learn the real port.
func serveForever(addr string, h http.Handler, hard hardening) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", ln.Addr())
	log.Fatal(hard.server(h).Serve(ln))
}

// runCoordinator serves the scatter-gather front end: no corpus, no
// pipeline, just fan-out over the shard peers.
func runCoordinator(addr, peersRaw string, timeout time.Duration, metrics *obsv.Registry, gov *overload.Governor, debug func(*serve.Router), hard hardening) {
	peers, err := cluster.ParsePeers(peersRaw)
	if err != nil {
		log.Fatalf("%v (coordinator needs -peers=name=url,name=url)", err)
	}
	coord, err := cluster.NewCoordinator(peers, cluster.Config{Timeout: timeout, Metrics: metrics, Governor: gov})
	if err != nil {
		log.Fatal(err)
	}
	debug(coord.Router)
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	log.Printf("coordinator over %d shards: %s", len(peers), strings.Join(names, ", "))
	serveForever(addr, coord, hard)
}

// runReplica pulls the leader's snapshots: block until the first epoch
// is applied, then serve it and keep polling in the background. The
// replica holds no durable state — a restart just re-syncs.
func runReplica(addr, leaderURL string, interval time.Duration, maxLag uint64, metrics *obsv.Registry, opts []serve.Option, debug func(*serve.Router), hard hardening) {
	if leaderURL == "" {
		log.Fatal("-role=replica needs -peers=<leader base URL>")
	}
	leaderURL = strings.TrimRight(leaderURL, "/")
	// The publish hook builds the server on the first applied snapshot
	// (serve.New needs an interface) and swaps atomically afterwards. The
	// first call happens below in WaitSynced, before any request traffic.
	var srv *serve.Server
	var rep *cluster.Replica
	var err error
	rep, err = cluster.NewReplica(cluster.ReplicaConfig{
		LeaderURL:    leaderURL,
		MaxLagEpochs: maxLag,
		Metrics:      metrics,
		Logf:         log.Printf,
	}, func(iface *browse.Interface) {
		if srv == nil {
			srv = serve.New(iface, "replica of "+leaderURL, opts...)
			srv.AddReadiness("replication", rep.Ready)
			debug(srv.Router)
			return
		}
		srv.Publish(iface)
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("replica: syncing from %s...", leaderURL)
	if err := rep.WaitSynced(context.Background(), interval, 2*time.Minute); err != nil {
		log.Fatal(err)
	}
	epoch, _ := rep.AppliedEpoch()
	log.Printf("replica: serving epoch %d, polling every %v", epoch, interval)
	go rep.Run(context.Background(), interval)
	serveForever(addr, srv, hard)
}

// serveBatch is the frozen-corpus mode: run the pipeline once, optionally
// persist the result as a snapshot, and serve.
func serveBatch(sys *facet.System, addr, profile string, seed uint64, snapPath string, metrics *obsv.Registry, opts []serve.Option, debug func(*serve.Router), cl *clusterOpts, hard hardening) {
	log.Printf("extracting facets from %d documents...", sys.Len())
	res, err := sys.ExtractFacets()
	if err != nil {
		log.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range res.StageReport() {
		log.Printf("stage %-20s %3d call(s)  %v", st.Stage, st.Calls, st.Total.Round(time.Millisecond))
	}
	iface, err := browseInterface(res, h)
	if err != nil {
		log.Fatal(err)
	}
	iface.SetMetrics(metrics)
	if snapPath != "" {
		stats := make([]snapshot.FacetStat, len(res.Facets))
		for i, f := range res.Facets {
			stats[i] = snapshot.FacetStat{Term: f.Term, DF: f.DF, DFC: f.DFC, ShiftF: f.ShiftF, ShiftR: f.ShiftR, Score: f.Score}
		}
		snap := snapshot.Capture(iface, snapshot.Meta{
			Profile: profile, Seed: seed, CreatedUnixNano: time.Now().UnixNano(),
		}, stats)
		if err := snapshot.Save(snapPath, snap, metrics); err != nil {
			log.Printf("snapshot save: %v", err)
		} else {
			log.Printf("snapshot saved to %s (next start warm-starts from it)", snapPath)
		}
	}
	title := fmt.Sprintf("%s archive — %d stories, %d facet terms", profile, sys.Len(), len(res.Facets))
	serveFrozen(iface, title, addr, opts, debug, cl, hard)
}

// serveFrozen serves an already-built interface forever (shared by the
// cold batch path and the snapshot warm start). The cluster role decides
// what exactly goes on the wire: a shard serves its ring partition plus
// the scatter endpoints, a leader serves everything plus the snapshot
// shipping endpoint, a plain node just serves.
func serveFrozen(iface *browse.Interface, title, addr string, opts []serve.Option, debug func(*serve.Router), cl *clusterOpts, hard hardening) {
	srv := serve.New(iface, title, opts...)
	switch cl.role {
	case "shard":
		names := strings.Split(cl.shards, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		ring, err := cluster.NewRing(names, 0)
		if err != nil {
			log.Fatal(err)
		}
		sh, err := cluster.BuildShard(iface, ring, cl.name)
		if err != nil {
			log.Fatal(err)
		}
		srv = serve.New(sh.Interface(), fmt.Sprintf("%s — shard %s", title, cl.name), opts...)
		sh.Register(srv)
		log.Printf("shard %s: serving %d of %d documents (ring of %d)",
			cl.name, sh.Len(), iface.Corpus().Len(), len(names))
	case "leader":
		ship := cluster.NewShipper(cl.profile, cl.seed, cl.metrics)
		ship.Register(srv)
		if err := ship.Publish(iface); err != nil {
			log.Fatal(err)
		}
		log.Printf("leader: shipping epoch %d at /api/v1/cluster/snapshot", iface.Epoch())
	}
	debug(srv.Router)
	log.Printf("serving %s", title)
	serveForever(addr, srv, hard)
}

// validateSnapshot is the warm start's background deep check: recompute
// every posting list from the snapshot's own annotations and compare.
// The outcome lands in the metrics registry (snapshot.validate_ok /
// snapshot.validate_failures) so operators can alert on it.
func validateSnapshot(snap *snapshot.Snapshot, path string, metrics *obsv.Registry) {
	if err := snap.Verify(); err != nil {
		metrics.Counter("snapshot.validate_failures").Inc()
		log.Printf("snapshot %s FAILED background validation: %v (serving continues on the loaded state; rebuild without -snapshot to recover)", path, err)
		return
	}
	metrics.Counter("snapshot.validate_ok").Inc()
	log.Printf("snapshot %s passed background validation", path)
}

// browseInterface reaches beneath the facade for the internal browse
// engine the HTTP server needs.
func browseInterface(res *facet.Result, h *facet.Hierarchy) (*browse.Interface, error) {
	return res.BrowseEngine(h)
}
