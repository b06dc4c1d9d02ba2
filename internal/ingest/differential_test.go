package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/browse"
)

// swapSelections enumerates selection shapes against the testDocs corpus
// (facets from the map resource, keywords from the templates, dates from
// the August 2006 spread).
func swapSelections() []browse.Selection {
	day := func(d int) time.Time { return time.Date(2006, 8, d, 0, 0, 0, 0, time.UTC) }
	return []browse.Selection{
		{},
		{Terms: []string{"france"}},
		{Terms: []string{"germany"}},
		{Terms: []string{"locations"}},
		{Terms: []string{"france", "locations"}},
		{Terms: []string{"no-such-facet"}},
		{Query: "budget"},
		{Query: "the"}, // stopword-only query
		{Terms: []string{"sports"}, Query: "baseball"},
		{From: day(3), To: day(12)},
		{Terms: []string{"france"}, From: day(1), To: day(20)},
	}
}

// checkIndexedMatchesScan asserts the posting-list + cache path answers
// byte-identically to the naive full-scan reference on one interface.
// Each selection is asked twice, so both the cold and the cached paths
// are compared.
func checkIndexedMatchesScan(t *testing.T, label string, iface *browse.Interface) {
	t.Helper()
	for i, sel := range swapSelections() {
		want := iface.ScanDocs(sel)
		for _, pass := range []string{"cold", "cached"} {
			got := iface.Docs(sel)
			if len(got) != len(want) {
				t.Fatalf("%s sel%d/%s: indexed %v, naive %v", label, i, pass, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s sel%d/%s: indexed %v, naive %v", label, i, pass, got, want)
				}
			}
		}
		if got, want := iface.MatchCount(sel), iface.ScanMatchCount(sel); got != want {
			t.Fatalf("%s sel%d: MatchCount %d, naive %d", label, i, got, want)
		}
	}
}

// TestDifferentialAcrossEpochSwap proves the indexed + cached serving
// path equals the naive scan before, during, and after a live ingest
// epoch swap, at Workers 1 and 8. Run under -race in CI, the concurrent
// phase additionally proves the published interfaces are safe to query
// while the swap lands.
func TestDifferentialAcrossEpochSwap(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.EpochDocs = 5
			ing, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			docs := testDocs(30)
			if err := ing.Bootstrap(docs[:10], false); err != nil {
				t.Fatal(err)
			}
			pre := ing.Current()
			preEpoch := pre.Epoch()
			if preEpoch == 0 {
				t.Fatal("bootstrap interface has no epoch stamp")
			}
			checkIndexedMatchesScan(t, "pre-swap", pre)

			// Hammer whatever interface is current while epochs swap
			// beneath the readers.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			sels := swapSelections()
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; ; rep++ {
						select {
						case <-stop:
							return
						default:
						}
						iface := ing.Current()
						sel := sels[(g+rep)%len(sels)]
						got := iface.Docs(sel)
						want := iface.ScanDocs(sel)
						if len(got) != len(want) {
							t.Errorf("concurrent: indexed %v, naive %v (sel %+v)", got, want, sel)
							return
						}
						for j := range got {
							if got[j] != want[j] {
								t.Errorf("concurrent: indexed %v, naive %v (sel %+v)", got, want, sel)
								return
							}
						}
					}
				}(g)
			}

			ing.Start()
			for _, d := range docs[10:] {
				if err := ing.SubmitContext(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
			if err := ing.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			post := ing.Current()
			if post.Epoch() <= preEpoch {
				t.Fatalf("epoch did not advance across the swap: pre %d, post %d", preEpoch, post.Epoch())
			}
			if got := post.MatchCount(browse.Selection{}); got != len(docs) {
				t.Fatalf("post-swap interface serves %d docs, want %d", got, len(docs))
			}
			checkIndexedMatchesScan(t, "post-swap", post)
			// The superseded epoch remains internally consistent: its cache
			// keys carry its own epoch, so late readers finish correctly.
			checkIndexedMatchesScan(t, "superseded", pre)
		})
	}
}
