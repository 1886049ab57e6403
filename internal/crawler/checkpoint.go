package crawler

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"flock/internal/httpkit"
)

// ProgressVersion is the checkpoint schema version Save stamps.
//
// v1 files predate the Version field (they decode as 0) and carry no
// health snapshot; they still load cleanly and resume with an empty
// registry. v2 adds the persisted per-host health registry. Decoders
// refuse versions newer than this constant rather than silently
// dropping fields they do not understand.
const ProgressVersion = 2

// The §3 pipeline's phases, in execution order. Progress.Phase holds the
// highest phase that has fully completed, so a resumed crawl re-enters
// the first incomplete phase and skips the units that already finished.
const (
	phaseNone      = iota
	phaseIndex     // §3.1 instance index
	phaseTweets    // §3.1 tweet collection
	phaseMapping   // §3.1 account mapping
	phaseTwitterTL // §3.2 Twitter timelines
	phaseMastoTL   // §3.2 Mastodon timelines
	phaseFollowees // §3.3 followee sample
	phaseActivity  // §3.1 weekly activity
	phaseToxicity  // §6.3 toxicity scoring
)

// SeenTweet is a phase-2 accumulation entry: a tweet as found by a query,
// with the winning query class so the dedup rule survives a resume.
type SeenTweet struct {
	Tweet TweetJSON  `json:"tweet"`
	Class QueryClass `json:"class"`
}

// Progress is the serializable crawl state a Checkpoint persists. It
// carries the partial dataset plus the per-phase completion sets that let
// a resumed Crawler.Run skip finished work. The zero value (via
// newProgress) is a fresh crawl.
type Progress struct {
	// Version is the checkpoint schema version this progress was saved
	// under (see ProgressVersion); zero for v1 files.
	Version int `json:"version,omitempty"`
	// Phase is the highest fully completed phase.
	Phase int `json:"phase"`
	// Health is the persisted per-host health registry snapshot (schema
	// v2): breaker positions, quarantine ages and the error taxonomy
	// survive the run, so a resumed crawl plans around known-dead hosts
	// instead of re-learning them dial by dial.
	Health []httpkit.HostHealth `json:"health,omitempty"`
	// Dataset accumulates crawl output across phases.
	Dataset *Dataset `json:"dataset"`
	// SeenTweets is the phase-2 dedup accumulator, keyed by tweet ID;
	// cleared when the phase completes.
	SeenTweets map[string]SeenTweet `json:"seen_tweets,omitempty"`
	// DoneQueries marks phase-2 search queries that completed.
	DoneQueries map[string]bool `json:"done_queries,omitempty"`
	// DoneAuthors marks phase-3 authors that were mapped or skipped.
	DoneAuthors map[string]bool `json:"done_authors,omitempty"`
	// DoneFollowees marks phase-5 sampled users whose followee crawl
	// finished (including terminal failures).
	DoneFollowees map[string]bool `json:"done_followees,omitempty"`
	// DoneActivity marks phase-6 instance domains that finished.
	DoneActivity map[string]bool `json:"done_activity,omitempty"`
}

func newProgress() *Progress {
	p := &Progress{Version: ProgressVersion, Dataset: NewDataset()}
	p.normalize()
	return p
}

// Clone deep-copies the progress through its JSON form — the same
// round trip FileCheckpoint performs — so every Checkpoint
// implementation hands out isolated snapshots with identical
// serialization semantics. A nil progress clones to nil.
func (p *Progress) Clone() (*Progress, error) {
	if p == nil {
		return nil, nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("crawler: clone progress: %w", err)
	}
	out := &Progress{}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("crawler: clone progress: %w", err)
	}
	return out, nil
}

// normalize re-initializes nil maps (JSON round-trips drop empties).
func (p *Progress) normalize() {
	if p.Dataset == nil {
		p.Dataset = NewDataset()
	}
	d := p.Dataset
	if d.TwitterTimelines == nil {
		d.TwitterTimelines = map[string]*TwitterTimeline{}
	}
	if d.MastodonTimelines == nil {
		d.MastodonTimelines = map[string]*MastodonTimeline{}
	}
	if d.TwitterFollowees == nil {
		d.TwitterFollowees = map[string][]FolloweeRef{}
	}
	if d.MastodonFollowing == nil {
		d.MastodonFollowing = map[string][]string{}
	}
	if d.Activity == nil {
		d.Activity = map[string][]WeekActivity{}
	}
	if p.SeenTweets == nil {
		p.SeenTweets = map[string]SeenTweet{}
	}
	if p.DoneQueries == nil {
		p.DoneQueries = map[string]bool{}
	}
	if p.DoneAuthors == nil {
		p.DoneAuthors = map[string]bool{}
	}
	if p.DoneFollowees == nil {
		p.DoneFollowees = map[string]bool{}
	}
	if p.DoneActivity == nil {
		p.DoneActivity = map[string]bool{}
	}
}

// Checkpoint persists crawl progress so a killed or cancelled Run can
// resume where it stopped. Load returns (nil, nil) when no checkpoint
// exists yet. Implementations must tolerate Save being called from the
// crawl's worker goroutines (calls are serialized by the crawler).
type Checkpoint interface {
	Load() (*Progress, error)
	Save(*Progress) error
}

// MemCheckpoint is an in-memory Checkpoint for tests and single-process
// pipelines. The zero value is ready to use. Save and Load both deep-copy
// the progress, matching FileCheckpoint's serialize semantics: the stored
// snapshot is frozen at Save time, not a live alias of the tracker's
// still-mutating *Progress.
type MemCheckpoint struct {
	mu    sync.Mutex
	data  *Progress
	saves int
}

// Load returns a copy of the last saved progress (nil when never saved).
func (m *MemCheckpoint) Load() (*Progress, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data.Clone()
}

// Save stores a snapshot of the progress.
func (m *MemCheckpoint) Save(p *Progress) error {
	cp, err := p.Clone()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = cp
	m.saves++
	return nil
}

// Saves reports how many times Save has been called.
func (m *MemCheckpoint) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// tracker serializes all mutation of the in-flight Progress and drives
// periodic checkpoint saves: one Save per `every` completed units, plus
// an explicit flush at every phase boundary.
type tracker struct {
	mu      sync.Mutex
	ckpt    Checkpoint // nil: no persistence
	every   int
	pending int
	prog    *Progress
	health  *httpkit.HealthRegistry // nil: no health persistence
}

// snapshotHealth refreshes the progress's registry snapshot so every
// saved checkpoint carries the breaker/quarantine state current at save
// time. Caller holds t.mu.
func (t *tracker) snapshotHealth() {
	if t.health != nil {
		t.prog.Health = t.health.Export()
	}
}

// update applies fn to the progress under the tracker lock and counts one
// completed unit toward the periodic save.
func (t *tracker) update(fn func(*Progress)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.prog)
	if t.ckpt == nil {
		return
	}
	t.pending++
	if t.pending >= t.every {
		// Best effort mid-phase; a failure here is retried by the next
		// periodic save and surfaced by the phase-boundary flush.
		t.snapshotHealth()
		if err := t.ckpt.Save(t.prog); err == nil {
			t.pending = 0
		}
	}
}

// flush forces a save (phase boundaries, cancellation paths).
func (t *tracker) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ckpt == nil {
		return nil
	}
	t.snapshotHealth()
	if err := t.ckpt.Save(t.prog); err != nil {
		return fmt.Errorf("crawler: checkpoint save: %w", err)
	}
	t.pending = 0
	return nil
}

// CrawlReport is the post-run account of what the crawl could not get:
// per-host health and error taxonomy from the circuit-breaker registry,
// plus every unit of work that failed terminally, instead of the gaps
// being silently dropped (the paper reports its own failure taxonomy in
// §3.2 the same way).
type CrawlReport struct {
	// Resumed is true when the run continued from a checkpoint.
	Resumed bool
	// Hosts is the health registry snapshot: breaker state, quarantine
	// flag and error counts per host touched by the crawl.
	Hosts []httpkit.HostHealth
	// FailedQueries lists phase-2 search queries that failed terminally.
	FailedQueries map[string]string
	// DroppedAuthors lists phase-3 authors skipped on lookup failure.
	DroppedAuthors map[string]string
	// TwitterTimelineFailures / MastodonTimelineFailures list §3.2
	// timeline crawls that failed on transport (not taxonomy) errors.
	TwitterTimelineFailures  map[string]string
	MastodonTimelineFailures map[string]string
	// FolloweeGaps lists sampled users whose followee crawl failed.
	FolloweeGaps map[string]string
	// ActivityGaps lists instance domains dropped from the activity
	// crawl.
	ActivityGaps map[string]string
	// ToxicityGaps lists §6.3 posts whose scoring failed; they keep
	// Toxicity -1. Keys are "twitter/<post ID>" and
	// "mastodon/<domain>/<status ID>".
	ToxicityGaps map[string]string
	// SkippedQuarantined lists hosts the planner refused to schedule
	// because the (possibly resumed) health registry had them
	// quarantined, mapped to a short account of what was skipped. Units
	// on these hosts also appear in the per-phase gap maps above; this
	// map is the host-level rollup.
	SkippedQuarantined map[string]string
	// HTTPStats is the shared client's counter snapshot: requests,
	// retries, hedges fired/won/denied, breaker short-circuits.
	HTTPStats httpkit.Stats
	// HostLimits is the adaptive limiter's final per-host concurrency
	// window (nil when adaptation is off).
	HostLimits map[string]int
}

// Quarantined returns the hosts the registry quarantined during the run.
func (r *CrawlReport) Quarantined() []string {
	var out []string
	for _, h := range r.Hosts {
		if h.Quarantined {
			out = append(out, h.Host)
		}
	}
	return out
}

// GapCount totals the terminally failed work units.
func (r *CrawlReport) GapCount() int {
	return len(r.FailedQueries) + len(r.DroppedAuthors) +
		len(r.TwitterTimelineFailures) + len(r.MastodonTimelineFailures) +
		len(r.FolloweeGaps) + len(r.ActivityGaps) + len(r.ToxicityGaps)
}

// Summary renders a compact human-readable report.
func (r *CrawlReport) Summary() string {
	open, quarantined := 0, 0
	for _, h := range r.Hosts {
		if h.State != httpkit.BreakerClosed {
			open++
		}
		if h.Quarantined {
			quarantined++
		}
	}
	return fmt.Sprintf(
		"crawl report: resumed=%v hosts=%d open=%d quarantined=%d skipped=%d gaps=%d (queries=%d authors=%d twitterTL=%d mastoTL=%d followees=%d activity=%d toxicity=%d)",
		r.Resumed, len(r.Hosts), open, quarantined, len(r.SkippedQuarantined), r.GapCount(),
		len(r.FailedQueries), len(r.DroppedAuthors),
		len(r.TwitterTimelineFailures), len(r.MastodonTimelineFailures),
		len(r.FolloweeGaps), len(r.ActivityGaps), len(r.ToxicityGaps))
}

// report accumulates gap records during a run; Crawler.Report snapshots
// it.
type reportState struct {
	mu                 sync.Mutex
	resumed            bool
	failedQueries      map[string]string
	droppedAuthors     map[string]string
	twitterTLFailures  map[string]string
	mastoTLFailures    map[string]string
	followeeGaps       map[string]string
	activityGaps       map[string]string
	toxicityGaps       map[string]string
	skippedQuarantined map[string]int // host -> work units skipped
}

func newReportState() *reportState {
	return &reportState{
		failedQueries:      map[string]string{},
		droppedAuthors:     map[string]string{},
		twitterTLFailures:  map[string]string{},
		mastoTLFailures:    map[string]string{},
		followeeGaps:       map[string]string{},
		activityGaps:       map[string]string{},
		toxicityGaps:       map[string]string{},
		skippedQuarantined: map[string]int{},
	}
}

func (r *reportState) note(m map[string]string, key string, err error) {
	r.mu.Lock()
	m[key] = err.Error()
	r.mu.Unlock()
}

// noteSkip counts one planner-skipped work unit against host.
func (r *reportState) noteSkip(host string) {
	r.mu.Lock()
	r.skippedQuarantined[host]++
	r.mu.Unlock()
}

// Report snapshots the crawl's failure accounting and per-host health.
// Call it after Run returns; it is also valid after a cancelled run (the
// report then covers the work attempted so far).
func (c *Crawler) Report() *CrawlReport {
	c.rep.mu.Lock()
	defer c.rep.mu.Unlock()
	cp := func(m map[string]string) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	rep := &CrawlReport{
		Resumed:                  c.rep.resumed,
		Hosts:                    c.health.Snapshot(),
		FailedQueries:            cp(c.rep.failedQueries),
		DroppedAuthors:           cp(c.rep.droppedAuthors),
		TwitterTimelineFailures:  cp(c.rep.twitterTLFailures),
		MastodonTimelineFailures: cp(c.rep.mastoTLFailures),
		FolloweeGaps:             cp(c.rep.followeeGaps),
		ActivityGaps:             cp(c.rep.activityGaps),
		ToxicityGaps:             cp(c.rep.toxicityGaps),
		SkippedQuarantined:       map[string]string{},
		HTTPStats:                c.client.Stats(),
		HostLimits:               c.lim.Limits(),
	}
	for host, units := range c.rep.skippedQuarantined {
		opens := 0
		for _, h := range rep.Hosts {
			if h.Host == host {
				opens = h.Opens
				break
			}
		}
		rep.SkippedQuarantined[host] = fmt.Sprintf("quarantined after %d breaker opens; %d work units skipped", opens, units)
	}
	sort.Slice(rep.Hosts, func(i, j int) bool { return rep.Hosts[i].Host < rep.Hosts[j].Host })
	return rep
}

// begin loads (or starts) progress and builds the run's tracker.
func (c *Crawler) begin() (*tracker, error) {
	t := &tracker{ckpt: c.cfg.Checkpoint, every: c.cfg.CheckpointEvery, health: c.health}
	if t.every <= 0 {
		t.every = 32
	}
	if c.cfg.Checkpoint != nil {
		prog, err := c.cfg.Checkpoint.Load()
		if err != nil {
			return nil, fmt.Errorf("crawler: checkpoint load: %w", err)
		}
		if prog != nil {
			if prog.Version > ProgressVersion {
				return nil, fmt.Errorf("crawler: checkpoint schema v%d is newer than supported v%d", prog.Version, ProgressVersion)
			}
			prog.normalize()
			// Seed the registry with the persisted health snapshot so the
			// planner skips hosts quarantined before the kill. v1 files
			// carry no snapshot and resume with an empty registry.
			if !c.cfg.NoHealthResume && len(prog.Health) > 0 {
				c.health.ImportHealth(prog.Health)
			}
			prog.Version = ProgressVersion
			t.prog = prog
			c.rep.mu.Lock()
			c.rep.resumed = true
			c.rep.mu.Unlock()
			return t, nil
		}
	}
	t.prog = newProgress()
	return t, nil
}

// parseTweetTime is the shared RFC3339 parse for crawl phases.
func parseTweetTime(s string) (time.Time, bool) {
	at, err := time.Parse(time.RFC3339, s)
	return at, err == nil
}
