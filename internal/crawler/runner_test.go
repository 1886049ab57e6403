package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"flock/internal/birdsite"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/toxsvc"
)

// scoredConfig is a toxicity-scoring crawl with doer as its transport.
func scoredConfig(doer httpkit.Doer) Config {
	return Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       Transport{HTTP: doer, Concurrency: 8},
		ScoreToxicity:   true,
	}
}

// progressLines are the phase line prefixes perfbench and the chaos
// tests key off, in phase order.
var progressLines = []string{
	"index:", "collected ", "mapped ", "twitter timelines:",
	"mastodon timelines:", "followee sample:", "activity:", "toxicity scoring done",
}

// TestProgressLineContract: a fresh scored crawl logs each phase's line
// exactly once, in phase order, after that phase's checkpoint save; a
// re-run over the completed checkpoint logs nothing.
func TestProgressLineContract(t *testing.T) {
	e := newEnv(t, 15, 13)
	ckpt := &MemCheckpoint{}
	var got []string
	cfg := scoredConfig(e.http)
	cfg.Checkpoint = ckpt
	// Phase-boundary saves only: a periodic save cannot stand in for the
	// boundary save the contract requires.
	cfg.CheckpointEvery = 1 << 30
	cfg.Logf = func(format string, _ ...any) {
		i := len(got)
		got = append(got, format)
		if i >= len(progressLines) || !strings.HasPrefix(format, progressLines[i]) {
			t.Errorf("line %d = %q, want prefix %q", i, format, progressLines[min(i, len(progressLines)-1)])
			return
		}
		prog, err := ckpt.Load()
		if err != nil || prog == nil {
			t.Fatalf("line %q: checkpoint load = %v, %v", format, prog, err)
		}
		if want := phaseIndex + i; prog.Phase != want {
			t.Errorf("line %q logged before its save: saved phase %d, want %d", format, prog.Phase, want)
		}
	}
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(progressLines) {
		t.Fatalf("got %d lines %q, want %d", len(got), got, len(progressLines))
	}

	got = nil
	if _, err := New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("completed-checkpoint re-run logged %q", got)
	}
}

// toxicityKey is a post's ToxicityGaps key.
func toxicityKey(p Post) string {
	if p.Domain == "" {
		return "twitter/" + p.ID
	}
	return "mastodon/" + p.Domain + "/" + p.ID
}

// allPosts lists every timeline's posts.
func allPosts(ds *Dataset) []Post {
	var out []Post
	for _, tl := range ds.TwitterTimelines {
		out = append(out, tl.Posts...)
	}
	for _, tl := range ds.MastodonTimelines {
		out = append(out, tl.Posts...)
	}
	return out
}

// unscoredKeys is the set of ToxicityGaps keys of ds's unscored posts.
func unscoredKeys(ds *Dataset) map[string]bool {
	out := map[string]bool{}
	for _, p := range allPosts(ds) {
		if p.Toxicity < 0 {
			out[toxicityKey(p)] = true
		}
	}
	return out
}

// TestToxicityOutageLandsInGaps takes the scorer down before the
// toxicity phase: every post left unscored must be accounted for by
// exactly one ToxicityGaps entry, and no entry may name a scored post.
func TestToxicityOutageLandsInGaps(t *testing.T) {
	e := newEnv(t, 15, 17)
	cfg := scoredConfig(e.http)
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "activity:") {
			e.fab.SetDown(toxsvc.Host, true)
		}
	}
	c := New(cfg)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	unscored := unscoredKeys(ds)
	if len(unscored) == 0 {
		t.Fatal("scorer outage left no post unscored")
	}
	for k := range unscored {
		if _, ok := rep.ToxicityGaps[k]; !ok {
			t.Fatalf("unscored post %s has no ToxicityGaps entry", k)
		}
	}
	for k := range rep.ToxicityGaps {
		if !unscored[k] {
			t.Fatalf("ToxicityGaps entry %s names a scored or unknown post", k)
		}
	}
	if rep.GapCount() < len(rep.ToxicityGaps) {
		t.Fatalf("GapCount %d omits %d toxicity gaps", rep.GapCount(), len(rep.ToxicityGaps))
	}
	if !strings.Contains(rep.Summary(), "toxicity=") {
		t.Fatalf("summary omits toxicity gaps: %s", rep.Summary())
	}
}

type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(r *http.Request) (*http.Response, error) { return f(r) }

// TestToxicityResumeConverges kills a scored crawl after a fixed number
// of scorer requests, with mid-phase checkpoints on, and resumes it: the
// dataset must equal an uninterrupted scored crawl's. Under -race this
// also checks that score commits go through the tracker.
func TestToxicityResumeConverges(t *testing.T) {
	const seed, migrants, killAfter = 19, 12, 60

	ref := newEnv(t, migrants, seed)
	refDS, err := New(scoredConfig(ref.http)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, migrants, seed)
	ckpt := &MemCheckpoint{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scores atomic.Int64
	cfg := scoredConfig(doerFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Hostname() == toxsvc.Host && scores.Add(1) == killAfter {
			cancel()
		}
		return e.http.Do(r)
	}))
	cfg.Checkpoint = ckpt
	cfg.CheckpointEvery = 16
	if _, err := New(cfg).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill: err = %v, want context.Canceled", err)
	}
	prog, err := ckpt.Load()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Phase != phaseActivity {
		t.Fatalf("killed at phase %d, want mid-toxicity (after %d)", prog.Phase, phaseActivity)
	}
	if len(unscoredKeys(prog.Dataset)) == len(allPosts(prog.Dataset)) {
		t.Fatal("kill checkpoint holds no mid-phase scores")
	}

	cfg = scoredConfig(e.http)
	cfg.Checkpoint = ckpt
	cfg.CheckpointEvery = 1 << 30
	ds, err := New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed scored dataset diverged: got %d bytes, want %d", len(got), len(want))
	}
}
