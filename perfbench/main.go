// Command perfbench is the repository's benchmark: it drives the facet
// system through its public API on one of four workloads and prints every
// metric by name and unit, then one JSON result line.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around its own calls into each layer and reports the
// per-layer metrics instead. README.md maps every per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// A metricDef names one reported metric. The catalogue below is the single
// list the result line is built from; BENCHMARK.json must agree with it
// (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"docs_per_s", "docs/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"heap_mb", "MB", "lower"},
	{"qps", "1/s", "higher"},
	{"publish_lag_p50_ms", "ms", "lower"},
	{"publish_lag_p90_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"core.identify.ms", "ms", "lower"},
	{"core.identify.alloc_mb", "MB", "lower"},
	{"core.context.ms", "ms", "lower"},
	{"core.context.sim_ms", "ms", "lower"},
	{"core.context.alloc_mb", "MB", "lower"},
	{"core.analyze.ms", "ms", "lower"},
	{"core.analyze.speedup", "x", "higher"},
	{"facet.assign.ms", "ms", "lower"},
	{"facet.assign.alloc_mb", "MB", "lower"},
	{"facet.assign.virtual_net_s", "s", "lower"},
	{"hierarchy.build.ms", "ms", "lower"},
	{"hierarchy.pairs.evaluated", "count", "lower"},
	{"browse.index.ms", "ms", "lower"},
	{"sim.virtual_net_s", "s", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"browse.query.us", "us", "lower"},
	{"browse.query_miss.us", "us", "lower"},
	{"browse.cache.hit_ratio", "ratio", "higher"},
	{"serve.handler.us", "us", "lower"},
	{"serve.response_bytes", "B", "lower"},
	{"overload.shed", "count", "lower"},
	{"overload.queue_wait_us", "us", "lower"},
	{"cluster.shard_rtt.us", "us", "lower"},
	{"cluster.shard_rtt_max.us", "us", "lower"},
	{"cluster.coordinator.us", "us", "lower"},
	{"cluster.subrequests_per_query", "count", "lower"},
	{"cluster.hedge_ratio", "ratio", "lower"},
	{"ingest.submit_wait.ms", "ms", "lower"},
	{"ingest.epoch.ms", "ms", "lower"},
	{"ingest.cache_hit_ratio", "ratio", "higher"},
	{"snapshot.save.ms", "ms", "lower"},
	{"snapshot.bytes", "B", "lower"},
	{"textdb.bytes_per_doc", "B", "lower"},
	{"ingest.dead_letters", "count", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"loadgen.late_p99.us", "us", "lower"},
	{"trace.overhead", "ms", "lower"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	log     io.Writer // progress and human-readable lines
}

// outcome is what a workload hands back: metric values by catalogue name,
// operation counts, and every output-check mismatch it found.
type outcome struct {
	metrics    map[string]float64
	attempted  int64
	failed     int64
	mismatches []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// mismatch records a failed output check; it also counts as a failed
// operation.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	o.failed++
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult assembles the result line from an outcome. An untraced run
// must have produced every end-to-end metric; a traced run reports every
// per-layer metric, with 0 for layers the workload does not exercise.
func buildResult(o *outcome, traced bool) (*result, error) {
	if o.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := &result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if traced {
		o.set("failed_ratio", float64(o.failed)/float64(o.attempted))
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"build":  runBuild,
	"browse": runBrowse,
	"fanout": runFanout,
	"ingest": runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "build, browse, fanout or ingest")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, log: stdout}
	stamp, err := json.Marshal(newStamp(*workload, *seed, cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "stamp %s\n", stamp)

	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(stdout, "MISMATCH", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d output check(s) failed\n", *workload, len(o.mismatches))
		return 1
	}
	return 0
}
