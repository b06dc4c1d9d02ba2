package facet

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index), plus
// micro-benchmarks of the load-bearing components. Each table benchmark
// regenerates its artifact on a scaled-down dataset per iteration;
// cmd/experiments regenerates the full-size artifacts.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/lang"
	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/textdb"
	"repro/internal/wordnet"
)

// Shared fixtures, built once per process.
var (
	benchOnce sync.Once
	benchLab  *eval.Lab
	benchRuns map[string]*eval.DataRun
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		lab, err := eval.NewLab(42)
		if err != nil {
			panic(err)
		}
		benchLab = lab
		benchRuns = map[string]*eval.DataRun{}
		for name, p := range map[string]newsgen.Profile{
			"SNYT": newsgen.SNYT.WithDocs(300),
			"SNB":  newsgen.SNB.WithDocs(400),
			"MNYT": newsgen.MNYT.WithDocs(500),
		} {
			dr, err := lab.NewDataRun(p, 7)
			if err != nil {
				panic(err)
			}
			benchRuns[name] = dr
		}
	})
}

// --- Table I and the figures ---

func BenchmarkTable1Pilot(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := eval.PilotStudy(benchRuns["SNYT"], 300, 9, 2)
		if len(res.Facets) == 0 {
			b.Fatal("empty pilot result")
		}
	}
}

func BenchmarkFigure4GroundTruth(b *testing.B) {
	benchSetup(b)
	dr := benchRuns["SNYT"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(300))
		if len(eval.Figure4(gt, 80)) == 0 {
			b.Fatal("empty figure 4")
		}
	}
}

func BenchmarkFigure5Baseline(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		terms, _, err := eval.Figure5(benchRuns["SNYT"], 25)
		if err != nil || len(terms) == 0 {
			b.Fatalf("figure 5 failed: %v", err)
		}
	}
}

// --- Recall tables (II, III, IV) ---

func benchRecall(b *testing.B, ds string) {
	benchSetup(b)
	dr := benchRuns[ds]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, _ := eval.RecallTable(dr, eval.RecallConfig{SampleSize: 300})
		if len(table.Rows) != 5 {
			b.Fatal("malformed table")
		}
	}
}

func BenchmarkTable2RecallSNYT(b *testing.B) { benchRecall(b, "SNYT") }
func BenchmarkTable3RecallSNB(b *testing.B)  { benchRecall(b, "SNB") }
func BenchmarkTable4RecallMNYT(b *testing.B) { benchRecall(b, "MNYT") }

// --- Precision tables (V, VI, VII) ---

func benchPrecision(b *testing.B, ds string) {
	benchSetup(b)
	dr := benchRuns[ds]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := eval.PrecisionTable(dr, eval.PrecisionConfig{TopK: 60})
		if err != nil || len(table.Rows) != 5 {
			b.Fatalf("precision table failed: %v", err)
		}
	}
}

func BenchmarkTable5PrecisionSNYT(b *testing.B) { benchPrecision(b, "SNYT") }
func BenchmarkTable6PrecisionSNB(b *testing.B)  { benchPrecision(b, "SNB") }
func BenchmarkTable7PrecisionMNYT(b *testing.B) { benchPrecision(b, "MNYT") }

// --- Sensitivity, efficiency, user study, ablations ---

func BenchmarkSensitivityCurve(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points := eval.Sensitivity(benchRuns["SNYT"], []int{50, 100, 200, 300})
		if len(points) != 4 {
			b.Fatal("bad curve")
		}
	}
}

func BenchmarkEfficiencyReport(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := eval.Efficiency(benchRuns["SNYT"], 100)
		if err != nil || len(rep.Extractors) == 0 {
			b.Fatalf("efficiency failed: %v", err)
		}
	}
}

func BenchmarkUserStudy(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eval.UserStudy(benchRuns["SNYT"], 100, uint64(i))
		if err != nil || len(res.Sessions) == 0 {
			b.Fatalf("user study failed: %v", err)
		}
	}
}

func BenchmarkAblationScoring(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eval.Ablation(benchRuns["SNYT"], 60)
		if err != nil || len(res.Variants) == 0 {
			b.Fatalf("ablation failed: %v", err)
		}
	}
}

// --- Per-stage efficiency micro-benchmarks (Section V-D granularity) ---

func BenchmarkStageExtractNE(b *testing.B)        { benchExtractor(b, eval.ExtNE) }
func BenchmarkStageExtractYahoo(b *testing.B)     { benchExtractor(b, eval.ExtYahoo) }
func BenchmarkStageExtractWikipedia(b *testing.B) { benchExtractor(b, eval.ExtWikipedia) }

func benchExtractor(b *testing.B, name string) {
	benchSetup(b)
	dr := benchRuns["SNYT"]
	ex := dr.Extractor(name)
	doc := dr.DS.Corpus.Doc(0)
	text := doc.Title + ". " + doc.Text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Extract(text)
	}
}

func BenchmarkStageResourceGoogle(b *testing.B)    { benchResource(b, eval.ResGoogle) }
func BenchmarkStageResourceWordNet(b *testing.B)   { benchResource(b, eval.ResWordNet) }
func BenchmarkStageResourceWikiSyn(b *testing.B)   { benchResource(b, eval.ResWikiSyn) }
func BenchmarkStageResourceWikiGraph(b *testing.B) { benchResource(b, eval.ResWikiGraph) }

func benchResource(b *testing.B, name string) {
	benchSetup(b)
	r := benchLab.NewResources(name)[0]
	terms := []string{"france", "political leaders", "war in iraq", "baseball", "stock market"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Context(terms[i%len(terms)])
	}
}

// --- Component micro-benchmarks ---

func BenchmarkTokenize(b *testing.B) {
	benchSetup(b)
	text := benchRuns["SNYT"].DS.Corpus.Doc(0).Text
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lang.Tokenize(text)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"relational", "organizations", "hierarchies", "leaders", "markets", "disasters"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lang.Stem(words[i%len(words)])
	}
}

func BenchmarkExtractTerms(b *testing.B) {
	benchSetup(b)
	text := benchRuns["SNYT"].DS.Corpus.Doc(0).Text
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		textdb.ExtractTerms(text)
	}
}

func BenchmarkBM25Search(b *testing.B) {
	benchSetup(b)
	corpus := benchRuns["SNYT"].DS.Corpus
	ix := textdb.BuildIndex(corpus)
	queries := []string{"election campaign", "summit leaders", "market shares", "storm damage"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(queries[i%len(queries)], 10)
	}
}

func BenchmarkWordNetGenerateParse(b *testing.B) {
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	lex := ontology.WordNetLexicon(kb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wordnet.FromIsa(lex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(100), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(env, Options{TopK: 50})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range docs {
			sys.Add(d)
		}
		res, err := sys.ExtractFacets()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.BuildHierarchy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineWorkers measures end-to-end pipeline throughput
// (extract + hierarchy, docs/sec) across worker-pool sizes — the
// check that sharding scales. On a single-CPU machine every worker count
// collapses to ~the sequential rate.
func BenchmarkPipelineWorkers(b *testing.B) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	const nDocs = 200
	docs, err := env.GenerateNewsCorpus("SNYT", nDocs, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(env, Options{TopK: 80, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range docs {
					sys.Add(d)
				}
				res, err := sys.ExtractFacets()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.BuildHierarchy(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nDocs*b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}
