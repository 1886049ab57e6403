package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"flock/internal/analysis"
	"flock/internal/birdsite"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/fediverse"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/report"
	"flock/internal/textsim"
	"flock/internal/toxsvc"
	"flock/internal/world"
)

// env is a running core.Env with the function that shuts it down.
type env struct {
	*core.Env
	close func()
}

// newEnv builds the simulated internet for a world. Untraced it is
// core.NewEnv itself. Traced it makes the same calls core.NewEnv makes,
// in the same order, each inside its own span; the jobs' output digests
// check that the two agree.
func newEnv(ctx context.Context, cfg world.Config, tr *tracer) (*env, error) {
	if tr == nil {
		e, err := core.NewEnv(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &env{Env: e, close: e.Close}, nil
	}
	s := tr.begin("core.new_env")
	defer tr.end(s)
	var w *world.World
	var err error
	tr.do("world.generate", func() { w, err = world.Generate(cfg) })
	if err != nil {
		return nil, err
	}
	fab := memnet.NewFabric()
	var stops []func()
	closeAll := func() {
		for _, stop := range stops {
			stop()
		}
		fab.Close()
	}
	serve := func(host string, h http.Handler) error {
		stop, err := fab.Serve(ctx, host, h)
		if err == nil {
			stops = append(stops, stop)
		}
		return err
	}
	var bs *birdsite.Service
	tr.do("birdsite.new", func() { bs = birdsite.New(w) })
	if err := serve(birdsite.Host, bs.Handler()); err != nil {
		closeAll()
		return nil, err
	}
	var ix *indexsvc.Service
	tr.do("indexsvc.new", func() { ix = indexsvc.New(w) })
	if err := serve(indexsvc.Host, ix.Handler()); err != nil {
		closeAll()
		return nil, err
	}
	if err := serve(toxsvc.Host, toxsvc.New(0).Handler()); err != nil {
		closeAll()
		return nil, err
	}
	var fedi *fediverse.Service
	tr.do("fediverse.new", func() { fedi = fediverse.New(w) })
	stop, err := fedi.RegisterAll(ctx, fab)
	if err != nil {
		closeAll()
		return nil, err
	}
	stops = append(stops, stop)
	return &env{Env: &core.Env{World: w, Fabric: fab, Fedi: fedi, Client: fab.Client()}, close: closeAll}, nil
}

// analyze computes every analysis of an unscored dataset (toxicity is
// scored locally) with workers analysis workers. Untraced it is
// core.Analyze. Traced it calls the analysis.Engine passes in
// core.Analyze's order, one span each, and also returns the embedding
// cache's final size.
func analyze(ds *crawler.Dataset, workers int, tr *tracer) (*core.Result, int) {
	if tr == nil {
		return core.Analyze(ds, core.Config{AnalysisWorkers: workers}), 0
	}
	s := tr.begin("core.analyze")
	defer tr.end(s)
	cache := textsim.NewCache()
	eng := analysis.Engine{Workers: workers, Cache: cache}
	res := &core.Result{Dataset: ds, Coverage: ds.Coverage()}
	passes := []struct {
		name string
		run  func()
	}{
		{"rq1", func() { res.RQ1 = eng.RQ1(ds) }},
		{"networks", func() { res.Networks = eng.SocialNetworkSizes(ds) }},
		{"contagion", func() { res.Contagion = eng.RQ2Contagion(ds) }},
		{"switching", func() { res.Switching = eng.RQ2Switching(ds) }},
		{"daily", func() { res.Daily = eng.Timelines(ds) }},
		{"sources", func() { res.Sources = eng.RQ3Sources(ds) }},
		{"overlap", func() { res.Overlap = eng.RQ3Overlap(ds, analysis.OverlapOptions{}) }},
		{"hashtags", func() { res.Hashtags = eng.RQ3Hashtags(ds) }},
		{"toxicity", func() {
			res.Toxicity = eng.RQ3Toxicity(ds, analysis.ToxicityOptions{ScoreFn: toxsvc.Score})
		}},
		{"collection", func() { res.Collection = eng.CollectionFigure(ds) }},
		{"activity", func() { res.Activity = eng.ActivityFigure(ds) }},
		{"retention", func() { res.Retention = eng.RQ4Retention(ds) }},
	}
	for _, p := range passes {
		tr.do("analysis."+p.name, p.run)
	}
	return res, cache.Len()
}

// render is report.All inside a span.
func render(res *core.Result, tr *tracer) string {
	var out string
	tr.do("report.render", func() { out = report.All(res) })
	return out
}

// digest is the sha256 of a value's JSON encoding (map keys sorted).
func digest(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", fmt.Errorf("perfbench: digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
