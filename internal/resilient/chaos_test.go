package resilient_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/resilient"
	"repro/internal/textdb"
)

// This file is the chaos differential test the robustness layer is built
// around: a pipeline run under injected transient faults, with retries
// enabled, must produce byte-identical output to the fault-free run — at
// every worker count and every injector seed — and a scripted permanent
// outage of one resource must produce exactly the output of a run
// configured without that resource — context terms and the assignment
// votes alike — with the outage reported in Result.Degradations.

// chaosCorpus builds a small deterministic corpus with enough vocabulary
// overlap for the shift tests to pass on some terms.
func chaosCorpus() *textdb.Corpus {
	topics := []string{"jazz festival", "wine tasting", "film premiere", "science fair"}
	places := []string{"brooklyn", "harlem", "queens", "chelsea", "tribeca"}
	c := textdb.NewCorpus()
	for i := 0; i < 36; i++ {
		topic := topics[i%len(topics)]
		place := places[i%len(places)]
		c.Add(&textdb.Document{
			Title: fmt.Sprintf("%s in %s", topic, place),
			Text: fmt.Sprintf(
				"The %s drew a crowd in %s this weekend. Critics called the %s program number %d remarkable.",
				topic, place, topic, i),
		})
	}
	return c
}

// chaosExtractor deterministically picks the longer terms of a document.
type chaosExtractor struct{}

func (chaosExtractor) Name() string { return "chaos-extractor" }

func (chaosExtractor) Extract(text string) []string {
	var out []string
	for _, t := range textdb.ExtractTerms(text) {
		if len(t) >= 5 {
			out = append(out, t)
		}
		if len(out) == 8 {
			break
		}
	}
	return out
}

// chaosResource maps a term to deterministic context terms; the prefix
// makes svc-a and svc-b contribute distinguishable vocabulary.
type chaosResource struct{ name string }

func (r chaosResource) Name() string { return r.name }

func (r chaosResource) Context(term string) []string {
	return []string{
		fmt.Sprintf("%s cat %c", r.name, term[0]),
		fmt.Sprintf("%s len %d", r.name, len(term)%4),
	}
}

// run executes one pipeline over the chaos corpus.
func run(t *testing.T, workers int, extractor core.Extractor, resources ...core.Resource) *core.Result {
	t.Helper()
	p, err := core.New(core.Config{
		Extractors: []core.Extractor{extractor},
		Resources:  resources,
		TopK:       25,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background(), chaosCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustEqual compares the output-bearing fields of two results.
func mustEqual(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Important, want.Important) {
		t.Fatalf("%s: Important differs", label)
	}
	if !reflect.DeepEqual(got.Context, want.Context) {
		t.Fatalf("%s: Context differs", label)
	}
	// The corroboration behind document-to-facet assignment comes from
	// the same Step-2 lookups as Context, so it degrades exactly as they do.
	if !reflect.DeepEqual(got.Corroborated, want.Corroborated) {
		t.Fatalf("%s: Corroborated differs", label)
	}
	if !reflect.DeepEqual(got.Candidates, want.Candidates) {
		t.Fatalf("%s: Candidates differ\n got %v\nwant %v", label, got.Candidates, want.Candidates)
	}
	if !reflect.DeepEqual(got.Facets, want.Facets) {
		t.Fatalf("%s: Facets differ", label)
	}
}

func TestChaosDifferential(t *testing.T) {
	baseline := run(t, 1, chaosExtractor{}, chaosResource{"svc-a"}, chaosResource{"svc-b"})
	if len(baseline.Candidates) == 0 {
		t.Fatal("baseline produced no candidates; corpus too bland for a meaningful differential")
	}

	// Transient faults + retries must be invisible in the output: the
	// injector's per-(service, key, attempt) hashing and the cache's
	// single-flight retry loop make the fault schedule independent of
	// scheduling, and MaxAttempts 64 at rate 0.35 makes every key's
	// eventual success a statistical certainty (0.35^64).
	for _, seed := range []uint64{1, 2, 3} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("transient/seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				inj := remote.NewInjector(seed, remote.NewClock())
				rate := 0.35
				inj.SetFaults("chaos-extractor", remote.FaultConfig{ErrorRate: rate})
				inj.SetFaults("svc-a", remote.FaultConfig{ErrorRate: rate})
				inj.SetFaults("svc-b", remote.FaultConfig{ErrorRate: rate})
				rcfg := resilient.Config{
					MaxAttempts: 64,
					BaseBackoff: time.Millisecond,
					Seed:        seed,
					Breaker:     resilient.BreakerConfig{Threshold: -1},
				}
				ex := resilient.WrapExtractor(inj.WrapExtractor(chaosExtractor{}), rcfg)
				ra := resilient.Wrap(inj.WrapResource(chaosResource{"svc-a"}), rcfg)
				rb := resilient.Wrap(inj.WrapResource(chaosResource{"svc-b"}), rcfg)

				res := run(t, workers, ex, ra, rb)
				mustEqual(t, "transient", res, baseline)
				if len(res.Degradations) != 0 {
					t.Fatalf("transient faults leaked into Degradations: %+v", res.Degradations)
				}
			})
		}
	}

	// A permanent outage of svc-a must degrade to exactly the run that
	// never had svc-a, and the gap must be reported.
	withoutA := run(t, 1, chaosExtractor{}, chaosResource{"svc-b"})
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("outage/workers=%d", workers), func(t *testing.T) {
			inj := remote.NewInjector(99, remote.NewClock())
			inj.Down("svc-a", -1) // down until Clear — never here
			rcfg := resilient.Config{
				MaxAttempts: 2,
				BaseBackoff: time.Millisecond,
				Breaker:     resilient.BreakerConfig{Threshold: 3, Cooldown: 4, Probes: 2},
			}
			ra := resilient.Wrap(inj.WrapResource(chaosResource{"svc-a"}), rcfg)
			rb := resilient.Wrap(inj.WrapResource(chaosResource{"svc-b"}), rcfg)

			res := run(t, workers, chaosExtractor{}, ra, rb)
			mustEqual(t, "outage", res, withoutA)

			var deg *core.Degradation
			for i := range res.Degradations {
				if res.Degradations[i].Name == "svc-a" {
					deg = &res.Degradations[i]
				} else {
					t.Fatalf("unexpected degradation: %+v", res.Degradations[i])
				}
			}
			if deg == nil {
				t.Fatal("outage not reported in Degradations")
			}
			if deg.Kind != "resource" || deg.Failures == 0 || deg.Docs == 0 || deg.LastErr == "" {
				t.Fatalf("degradation underspecified: %+v", deg)
			}
		})
	}
}
