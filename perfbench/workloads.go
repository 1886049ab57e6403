package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/store"
	"flock/internal/world"
)

// output is what one job (or warm-up) produced, before it is checked.
type output struct {
	ds     *crawler.Dataset
	report string // report.All; "" for a job that renders nothing
	crawl  *crawlRun
	// ops and failedOps are the job's operations: HTTP attempts for a
	// crawl, the load and analysis passes otherwise.
	ops, failedOps int64
	cacheLen       int // textsim cache size after analysis (traced only)
}

// workload is one world's worth of a workload. setup prepares its
// inputs once; warmup then runs the job once, through the shipped code
// path, and its output becomes the reference every timed job on this
// world is checked against.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	warmup(ctx context.Context) (*output, error)
	job(ctx context.Context, tr *tracer) (*output, error)
	// setupLayers gives the set-up's crawl, if it crawled, and any
	// per-layer values only set-up can measure.
	setupLayers() (*crawlRun, map[string]float64)
	close()
}

const (
	reproduceMigrants = 500
	figuresMigrants   = 1000
	anonSalt          = "perfbench-salt"
)

// spec is a workload as the command line names it. A run measures
// worlds worlds, each with its own seed, set-up and reference, and
// cycles its timed jobs through them. Crawl jobs spend a seed-dependent
// share of their time in retry backoff on down instances, so a run over
// two worlds varies less from seed to seed than a run over one.
// figures keeps one world: its set-up alone takes about 12 s.
type spec struct {
	worlds int
	make   func(seed uint64, nproc int, dataDir string) workload
}

var specs = map[string]spec{
	"reproduce": {2, func(seed uint64, nproc int, _ string) workload {
		return &reproduce{seed: seed, nproc: nproc}
	}},
	"crawl_scored": {2, func(seed uint64, nproc int, _ string) workload {
		return &crawlScored{seed: seed, nproc: nproc}
	}},
	"figures": {1, func(seed uint64, nproc int, dataDir string) workload {
		return &figures{seed: seed, nproc: nproc, dir: dataDir}
	}},
}

// worldStride separates the seeds of one run's worlds: world k of a run
// with seed s has seed s + k*worldStride.
const worldStride = 1000003

func worldConfig(migrants int, seed uint64) world.Config {
	cfg := world.DefaultConfig(migrants)
	cfg.Seed = seed
	return cfg
}

// reproduce is one cold cmd/migratrack invocation: world, services,
// crawl without toxicity scoring, analyses, report.
type reproduce struct {
	seed  uint64
	nproc int
}

func (w *reproduce) setup(ctx context.Context, tr *tracer) error  { return nil }
func (w *reproduce) close()                                       {}
func (w *reproduce) setupLayers() (*crawlRun, map[string]float64) { return nil, nil }

func (w *reproduce) config() core.Config {
	cfg := core.DefaultConfig(reproduceMigrants)
	cfg.World.Seed = w.seed
	cfg.ScoreToxicity = false
	cfg.Concurrency = w.nproc
	cfg.AnalysisWorkers = w.nproc
	return cfg
}

// warmup is core.Run itself, so every reproduce run checks the
// benchmark's crawl helper against the shipped pipeline.
func (w *reproduce) warmup(ctx context.Context) (*output, error) {
	res, err := core.Run(ctx, w.config())
	if err != nil {
		return nil, err
	}
	return &output{ds: res.Dataset, report: render(res, nil)}, nil
}

func (w *reproduce) job(ctx context.Context, tr *tracer) (*output, error) {
	cfg := w.config()
	e, err := newEnv(ctx, cfg.World, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	run, err := runCrawl(ctx, e.Env, false, w.nproc, tr)
	if err != nil {
		return nil, err
	}
	res, cacheLen := analyze(run.ds, w.nproc, tr)
	res.World = e.World
	ops, failed := run.doer.totals()
	return &output{ds: run.ds, report: render(res, tr), crawl: run, ops: ops, failedOps: failed, cacheLen: cacheLen}, nil
}

// crawlScored re-crawls one long-lived environment with the §6.3
// toxicity pass on.
type crawlScored struct {
	seed  uint64
	nproc int
	env   *env
}

func (w *crawlScored) setupLayers() (*crawlRun, map[string]float64) { return nil, nil }

func (w *crawlScored) setup(ctx context.Context, tr *tracer) error {
	e, err := newEnv(ctx, worldConfig(reproduceMigrants, w.seed), tr)
	if err != nil {
		return err
	}
	w.env = e
	return nil
}

func (w *crawlScored) close() {
	if w.env != nil {
		w.env.close()
		w.env = nil
	}
}

// warmup is core.Env.Crawl itself, the shipped crawl.
func (w *crawlScored) warmup(ctx context.Context) (*output, error) {
	restoreHosts(w.env.Env)
	cfg := core.DefaultConfig(reproduceMigrants)
	cfg.Concurrency = w.nproc
	ds, err := w.env.Crawl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &output{ds: ds}, nil
}

func (w *crawlScored) job(ctx context.Context, tr *tracer) (*output, error) {
	restoreHosts(w.env.Env)
	run, err := runCrawl(ctx, w.env.Env, true, w.nproc, tr)
	if err != nil {
		return nil, err
	}
	ops, failed := run.doer.totals()
	return &output{ds: run.ds, crawl: run, ops: ops, failedOps: failed}, nil
}

// figures is cmd/figures -data: load a stored, anonymized dataset,
// analyze it and render every figure.
type figures struct {
	seed     uint64
	nproc    int
	dir      string
	anonSum  string // digest of the dataset as saved
	bytesMB  float64
	setupRun *crawlRun
}

func (w *figures) close() { _ = os.RemoveAll(w.dir) }
func (w *figures) setupLayers() (*crawlRun, map[string]float64) {
	return w.setupRun, map[string]float64{"store.bytes_mb": w.bytesMB}
}

// setup is what cmd/migratrack -out does: crawl, anonymize (§3.4),
// save.
func (w *figures) setup(ctx context.Context, tr *tracer) error {
	e, err := newEnv(ctx, worldConfig(figuresMigrants, w.seed), tr)
	if err != nil {
		return err
	}
	run, err := runCrawl(ctx, e.Env, false, w.nproc, tr)
	e.close()
	if err != nil {
		return err
	}
	w.setupRun = run
	var anon *crawler.Dataset
	tr.do("store.anonymize", func() { anon = store.NewAnonymizer(anonSalt).Anonymize(run.ds) })
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	tr.do("store.save", func() { err = store.Save(w.dir, anon, true) })
	if err != nil {
		return err
	}
	if w.anonSum, err = digest(anon); err != nil {
		return err
	}
	w.bytesMB, err = dirMB(w.dir)
	return err
}

func (w *figures) warmup(ctx context.Context) (*output, error) {
	out, err := w.job(ctx, nil)
	if err != nil {
		return nil, err
	}
	sum, err := digest(out.ds)
	if err != nil {
		return nil, err
	}
	if sum != w.anonSum {
		return nil, fmt.Errorf("perfbench: figures: loaded dataset %s differs from the saved one %s", sum, w.anonSum)
	}
	return out, nil
}

func (w *figures) job(ctx context.Context, tr *tracer) (*output, error) {
	var ds *crawler.Dataset
	var err error
	tr.do("store.load", func() { ds, _, err = store.Load(w.dir) })
	if err != nil {
		return nil, err
	}
	res, cacheLen := analyze(ds, w.nproc, tr)
	// The load and the twelve analysis passes.
	return &output{ds: ds, report: render(res, tr), ops: 13, cacheLen: cacheLen}, nil
}

func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return mb(uint64(n)), err
}
