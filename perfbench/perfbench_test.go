package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"flock/internal/core"
)

// The metric lists the program reports must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
}

// The benchmark's crawl (crawler.New with a counting Doer around the
// unmodified client, and its own outage hook) must produce the dataset
// core.Run produces, at the shipped concurrency of 8 and at 2.
func TestCrawlHelperMatchesCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 500-migrant worlds")
	}
	ctx := context.Background()
	cfg := core.DefaultConfig(reproduceMigrants)
	cfg.World.Seed = 99
	cfg.ScoreToxicity = false
	res, err := core.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coreSum, err := digest(res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(ctx, cfg.World, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	run, err := runCrawl(ctx, e.Env, false, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	helperSum, err := digest(run.ds)
	if err != nil {
		t.Fatal(err)
	}
	if helperSum != coreSum {
		t.Fatalf("helper crawl digest %s != core.Run digest %s", helperSum, coreSum)
	}
	if want := golden["reproduce/99"].Dataset; coreSum != want {
		t.Fatalf("core.Run digest %s != golden %s", coreSum, want)
	}
	if req, failed := run.doer.totals(); req == 0 || failed == 0 {
		t.Fatalf("counting doer saw %d attempts, %d failed; want both > 0 with outages applied", req, failed)
	}
}

// A traced job gives the untraced job's output, every crawl phase and
// analysis pass gets a span, and the span accounting adds up.
func TestTracedJobAccounting(t *testing.T) {
	ctx := context.Background()
	job := func(tr *tracer) digests {
		s := tr.begin("job")
		defer tr.end(s)
		e, err := newEnv(ctx, worldConfig(100, 7), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		run, err := runCrawl(ctx, e.Env, true, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := analyze(run.ds, 2, tr)
		res.World = e.World
		d, err := sums(&output{ds: run.ds, report: render(res, tr)})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	plain := job(nil)
	tr := newTracer()
	tr.job = "job1"
	if traced := job(tr); traced != plain {
		t.Fatalf("traced job output %+v != untraced %+v", traced, plain)
	}
	if err := tr.finish(); err != nil {
		t.Fatal(err)
	}
	totals := tr.layerTotals("job1")
	for _, p := range crawlPhases {
		if _, ok := totals["crawler."+p.name]; !ok {
			t.Errorf("no span for crawl phase %s", p.name)
		}
	}
	for _, p := range analysisPassNames {
		if _, ok := totals["analysis."+p]; !ok {
			t.Errorf("no span for analysis pass %s", p)
		}
	}
	for _, name := range []string{"world.generate", "birdsite.new", "indexsvc.new", "fediverse.new", "report.render"} {
		if _, ok := totals[name]; !ok {
			t.Errorf("no span %s", name)
		}
	}
	var root *span
	var childSum float64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			root = s
		}
	}
	for _, s := range tr.spans {
		if s.Parent == root.ID {
			childSum += s.wall()
		}
	}
	if d := math.Abs(childSum + root.Self - root.wall()); d > 1e-6 {
		t.Fatalf("job children %.9f + self %.9f != wall %.9f", childSum, root.Self, root.wall())
	}
}
