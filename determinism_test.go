package flock

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"flock/internal/analysis"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/textsim"
)

var (
	detOnce sync.Once
	detDS   *crawler.Dataset
	detErr  error
)

// detDataset crawls one small shared world for the determinism tests.
func detDataset(t *testing.T) *crawler.Dataset {
	detOnce.Do(func() {
		cfg := core.DefaultConfig(150)
		cfg.World.Seed = 7
		cfg.ScoreToxicity = false
		res, err := core.Run(context.Background(), cfg)
		if err != nil {
			detErr = err
			return
		}
		detDS = res.Dataset
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return detDS
}

// analysisReport runs every RQ analysis through one engine and renders
// the results as stable JSON. ECDF marshals as its sorted sample array
// and encoding/json sorts map keys, so equal results give equal bytes.
// cache may be nil, as in core.Analyze.
func analysisReport(t *testing.T, ds *crawler.Dataset, workers int, cache *textsim.Cache) []byte {
	t.Helper()
	eng := analysis.Engine{Workers: workers, Cache: cache}
	report := map[string]any{
		"rq1":        eng.RQ1(ds),
		"networks":   eng.SocialNetworkSizes(ds),
		"contagion":  eng.RQ2Contagion(ds),
		"switching":  eng.RQ2Switching(ds),
		"daily":      eng.Timelines(ds),
		"sources":    eng.RQ3Sources(ds),
		"overlap":    eng.RQ3Overlap(ds, analysis.OverlapOptions{}),
		"hashtags":   eng.RQ3Hashtags(ds),
		"toxicity":   eng.RQ3Toxicity(ds, analysis.ToxicityOptions{}),
		"collection": eng.CollectionFigure(ds),
		"activity":   eng.ActivityFigure(ds),
		"retention":  eng.RQ4Retention(ds),
	}
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalysisDeterministicAcrossWorkers is the engine's acceptance
// test: the full RQ1-RQ3 (+retention) report must be byte-identical for
// any worker count and across consecutive runs at the same count.
func TestAnalysisDeterministicAcrossWorkers(t *testing.T) {
	ds := detDataset(t)
	want := analysisReport(t, ds, 1, textsim.NewCache())
	if len(want) < 100 {
		t.Fatalf("implausibly small report: %d bytes", len(want))
	}
	for _, w := range []int{1, 2, 8} {
		for run := 0; run < 2; run++ {
			got := analysisReport(t, ds, w, textsim.NewCache())
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d run=%d: report differs from serial baseline (%d vs %d bytes)",
					w, run, len(got), len(want))
			}
		}
	}
}

// TestAnalysisDeterministicWithoutCache pins the path core.Analyze
// takes, an engine with no embedding cache: its report must be
// byte-identical to the cached serial baseline at every worker count.
func TestAnalysisDeterministicWithoutCache(t *testing.T) {
	ds := detDataset(t)
	want := analysisReport(t, ds, 1, textsim.NewCache())
	for _, w := range []int{1, 2, 8} {
		if got := analysisReport(t, ds, w, nil); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: uncached report differs from cached serial baseline (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// TestAnalyzeDeterministicViaConfig covers the same property one layer
// up: core.Analyze with different AnalysisWorkers settings.
func TestAnalyzeDeterministicViaConfig(t *testing.T) {
	ds := detDataset(t)
	render := func(workers int) []byte {
		cfg := core.DefaultConfig(150)
		cfg.ScoreToxicity = false
		cfg.AnalysisWorkers = workers
		res := core.Analyze(ds, cfg)
		b, err := json.Marshal(res.RQ1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(res.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, b2...)
	}
	want := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, want) {
			t.Fatalf("AnalysisWorkers=%d: Analyze output differs", w)
		}
	}
}
