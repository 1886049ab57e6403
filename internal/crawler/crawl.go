package crawler

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"flock/internal/httpkit"
	"flock/internal/match"
	"flock/internal/vclock"
)

// DefaultKeywords are the §3.1 keyword and hashtag queries, verbatim.
var DefaultKeywords = []string{
	"mastodon",
	`"bye bye twitter"`,
	`"good bye twitter"`,
	"#Mastodon",
	"#MastodonMigration",
	"#ByeByeTwitter",
	"#GoodByeTwitter",
	"#TwitterMigration",
	"#MastodonSocial",
	"#RIPTwitter",
}

// Transport groups the wire-level knobs of a crawl — how requests are
// performed, bounded, hedged and circuit-broken — so they stop
// interleaving with pipeline knobs (sampling, keywords, checkpoints).
// It is embedded in Config; field access is promoted, so existing
// cfg.Concurrency readers keep working.
type Transport struct {
	// HTTP performs all requests (point it at the memnet fabric or a real
	// network).
	HTTP httpkit.Doer
	// Concurrency bounds parallel fetches globally (default 8).
	Concurrency int
	// Hedge enables tail-latency hedging on the crawl's shared client
	// (zero value: off).
	Hedge httpkit.HedgePolicy
	// Adaptive sizes a per-host AIMD concurrency window under the global
	// bound (zero value: global bound only).
	Adaptive AdaptivePolicy
	// Health is the per-host circuit-breaker registry shared by the
	// crawl's HTTP clients. When nil, New creates one from Breaker.
	Health *httpkit.HealthRegistry
	// Breaker tunes the registry New creates when Health is nil; zero
	// fields take httpkit.DefaultBreaker values.
	Breaker httpkit.BreakerPolicy
	// Clock is the time base for hedge digests and AIMD cooldowns; nil
	// means vclock.Wall.
	Clock vclock.NowFunc
}

// Config parameterizes a crawl.
type Config struct {
	// Service endpoints.
	TwitterBase     string
	IndexBase       string
	PerspectiveBase string
	// Transport holds the wire-level knobs (HTTP doer, concurrency,
	// hedging, adaptive windows, breakers).
	Transport
	// MaxSearchPages caps pagination per search query (0 = unlimited).
	MaxSearchPages int
	// FolloweeSampleFrac is the §3.3 sample size (default 0.10).
	FolloweeSampleFrac float64
	// ScoreToxicity enables the §6.3 Perspective pass over every post.
	ScoreToxicity bool
	// Keywords overrides DefaultKeywords when non-nil.
	Keywords []string
	// Logf receives one progress line per phase the run executes, in
	// phase order, after that phase's checkpoint save (nil = silent). The
	// formats begin "index:", "collected ", "mapped ", "twitter
	// timelines:", "mastodon timelines:", "followee sample:", "activity:"
	// and, with ScoreToxicity, "toxicity scoring done". Phases a resumed
	// checkpoint already completed print nothing.
	Logf func(format string, args ...any)
	// BeforeTimelines runs after discovery+mapping and before the
	// timeline crawls. The simulation uses it to take instances down at
	// the point in the crawl where the paper's instance deaths bit
	// (§3.2's 11.58%). On a resumed run it fires again whenever the
	// timeline phases are not yet complete.
	BeforeTimelines func()

	// Checkpoint persists per-phase progress so a cancelled or crashed
	// Run resumes where it stopped (nil = no persistence).
	Checkpoint Checkpoint
	// CheckpointEvery is the number of completed work units between
	// periodic mid-phase saves (default 32). Phase boundaries always
	// save.
	CheckpointEvery int
	// NoHealthResume discards the checkpoint's persisted health snapshot
	// on resume: the run re-learns host health from scratch instead of
	// planning around previously quarantined hosts.
	NoHealthResume bool
}

// Crawler runs the pipeline.
type Crawler struct {
	cfg     Config
	client  *httpkit.Client
	tw      *TwitterClient
	masto   *MastodonClient
	index   *IndexClient
	tox     *PerspectiveClient
	health  *httpkit.HealthRegistry
	lim     Limiter
	plan    *planner
	twHost  string
	toxHost string
	rep     *reportState
}

// New builds a Crawler. All service clients share ONE httpkit client —
// so the hedge budget, latency digests and per-host health registry are
// global across the crawl — plus an adaptive per-host limiter when
// cfg.Adaptive is enabled.
func New(cfg Config) *Crawler {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.FolloweeSampleFrac <= 0 {
		cfg.FolloweeSampleFrac = 0.10
	}
	if cfg.Keywords == nil {
		cfg.Keywords = DefaultKeywords
	}
	health := cfg.Health
	if health == nil {
		health = httpkit.NewHealthRegistry(cfg.Breaker)
		if cfg.Clock != nil {
			// Probation ages are computed against the crawl's clock.
			health.SetClock(cfg.Clock)
		}
	}
	client := httpkit.New(
		httpkit.WithDoer(cfg.HTTP),
		httpkit.WithUserAgent("flock-crawler/1.0"),
		httpkit.WithRetry(httpkit.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}),
		httpkit.WithBreaker(health),
		httpkit.WithHedge(cfg.Hedge),
		httpkit.WithClock(cfg.Clock),
	)
	c := &Crawler{
		cfg:     cfg,
		client:  client,
		tw:      &TwitterClient{Base: cfg.TwitterBase, C: client},
		masto:   &MastodonClient{C: client},
		index:   &IndexClient{Base: cfg.IndexBase, C: client},
		tox:     &PerspectiveClient{Base: cfg.PerspectiveBase, HTTP: client},
		health:  health,
		lim:     NewAdaptiveLimiter(cfg.Adaptive, health, cfg.Concurrency, cfg.Clock),
		twHost:  hostOf(cfg.TwitterBase),
		toxHost: hostOf(cfg.PerspectiveBase),
		rep:     newReportState(),
	}
	c.plan = newPlanner(c)
	return c
}

// hostOf extracts the lowercased hostname of a base URL, matching the
// key httpkit's breaker registry uses for the same requests.
func hostOf(base string) string {
	if u, err := url.Parse(base); err == nil && u.Hostname() != "" {
		return strings.ToLower(u.Hostname())
	}
	return strings.ToLower(base)
}

// underLimit runs fetch inside the adaptive limiter's window for host.
// Every work unit routes its exchanges through here so a backed-off host
// slows only its own units.
func underLimit[T any](ctx context.Context, c *Crawler, host string, fetch func() (T, error)) (T, error) {
	release, err := c.lim.Acquire(ctx, host)
	if err != nil {
		var zero T
		return zero, err
	}
	defer release()
	return fetch()
}

// Health exposes the crawl's per-host breaker registry.
func (c *Crawler) Health() *httpkit.HealthRegistry { return c.health }

// HTTPStats snapshots the shared client's counters (requests, retries,
// hedges fired/won, breaker short-circuits).
func (c *Crawler) HTTPStats() httpkit.Stats { return c.client.Stats() }

// HostLimits reports the adaptive limiter's current per-host windows
// (nil when adaptation is off).
func (c *Crawler) HostLimits() map[string]int { return c.lim.Limits() }

// unit is one resumable work item of a phase.
type unit struct {
	// key names the unit in the phase's gap map and done set.
	key string
	// host is the fediverse instance whose planner verdict may skip the
	// unit; empty for units on the core services, which never skip.
	host string
	// fetch makes the unit's exchanges and returns how to commit its
	// result; a nil commit means the phase's mark. A non-nil error is a
	// terminal failure unless the context ended: the runner records it as
	// a gap, then commits.
	fetch func(ctx context.Context) (commit func(*Progress), err error)
}

// phase is one row of the §3 pipeline table. It says only what differs
// between phases; runPhase owns the rest.
type phase struct {
	id    int                // Progress.Phase once the phase completes
	name  string             // error context
	line  string             // progress-line format
	count func(*Dataset) int // the line's argument (nil: none)
	// units lists the units not done yet, in run order. It runs before
	// the fan-out, so it reads a done set no worker is writing.
	units func(*Progress) []unit
	// mark records a unit that finished without a result of its own: a
	// terminal failure, a planner skip, or a fetch with nothing to commit.
	mark func(p *Progress, key string)
	// gaps collects terminal failures by unit key; nil makes them fatal.
	gaps map[string]string
	// finish, when set, runs in the phase's last update.
	finish func(*Progress)
}

// phases is the §3 pipeline in execution order.
func (c *Crawler) phases() []phase {
	ps := []phase{{
		id: phaseIndex, name: "instance index", line: "index: %d instances",
		count: func(d *Dataset) int { return len(d.Instances) },
		units: c.indexUnits,
	}, {
		id: phaseTweets, name: "tweet collection", line: "collected %d tweets",
		count:  func(d *Dataset) int { return len(d.CollectedTweets) },
		units:  c.queryUnits,
		mark:   func(p *Progress, q string) { p.DoneQueries[q] = true },
		gaps:   c.rep.failedQueries,
		finish: finishCollection,
	}, {
		id: phaseMapping, name: "account mapping", line: "mapped %d account pairs",
		count: func(d *Dataset) int { return len(d.Pairs) },
		units: c.authorUnits,
		// Authors that are gone, unmatched or unresolvable are done too.
		mark: func(p *Progress, a string) { p.DoneAuthors[a] = true },
		gaps: c.rep.droppedAuthors,
		finish: func(p *Progress) {
			sort.Slice(p.Dataset.Pairs, func(i, j int) bool {
				return p.Dataset.Pairs[i].TwitterID < p.Dataset.Pairs[j].TwitterID
			})
			p.DoneAuthors = map[string]bool{}
		},
	}, {
		id: phaseTwitterTL, name: "twitter timelines", line: "twitter timelines: %d",
		count: func(d *Dataset) int { return len(d.TwitterTimelines) },
		units: c.twitterTimelineUnits,
		// A transport failure is not an account state: the gap is recorded
		// alongside the taxonomy bucket.
		mark: func(p *Progress, id string) {
			p.Dataset.TwitterTimelines[id] = &TwitterTimeline{State: StateDeleted}
		},
		gaps: c.rep.twitterTLFailures,
	}, {
		id: phaseMastoTL, name: "mastodon timelines", line: "mastodon timelines: %d",
		count: func(d *Dataset) int { return len(d.MastodonTimelines) },
		units: c.mastodonTimelineUnits,
		mark: func(p *Progress, id string) {
			p.Dataset.MastodonTimelines[id] = &MastodonTimeline{State: StateInstanceDown}
		},
		gaps: c.rep.mastoTLFailures,
	}, {
		id: phaseFollowees, name: "followee sample", line: "followee sample: %d users",
		count:  func(d *Dataset) int { return len(d.TwitterFollowees) },
		units:  c.followeeUnits,
		mark:   func(p *Progress, id string) { p.DoneFollowees[id] = true },
		gaps:   c.rep.followeeGaps,
		finish: func(p *Progress) { p.DoneFollowees = map[string]bool{} },
	}, {
		id: phaseActivity, name: "activity", line: "activity: %d instances",
		count: func(d *Dataset) int { return len(d.Activity) },
		units: c.activityUnits,
		// Down instances drop out of the activity panel.
		mark:   func(p *Progress, domain string) { p.DoneActivity[domain] = true },
		gaps:   c.rep.activityGaps,
		finish: func(p *Progress) { p.DoneActivity = map[string]bool{} },
	}}
	if c.cfg.ScoreToxicity {
		ps = append(ps, phase{
			id: phaseToxicity, name: "toxicity", line: "toxicity scoring done",
			units: c.toxicityUnits,
			mark:  func(*Progress, string) {}, // an unscored post keeps -1
			gaps:  c.rep.toxicityGaps,
		})
	}
	return ps
}

// Run executes the full §3 pipeline and returns the dataset. With a
// Checkpoint configured, progress persists across cancellation: calling
// Run again resumes at the first incomplete phase and skips work units
// that already finished.
func (c *Crawler) Run(ctx context.Context) (*Dataset, error) {
	t, err := c.begin()
	if err != nil {
		return nil, err
	}
	for _, ph := range c.phases() {
		// The hook fires on every run (including resumes) that still has
		// timeline work left.
		if ph.id == phaseTwitterTL && c.cfg.BeforeTimelines != nil && t.prog.Phase < phaseMastoTL {
			c.cfg.BeforeTimelines()
		}
		if t.prog.Phase >= ph.id {
			continue
		}
		if err := c.runPhase(ctx, t, ph); err != nil {
			// Save best-effort so an interrupted run can resume.
			_ = t.flush()
			return nil, err
		}
	}
	if err := t.flush(); err != nil {
		return nil, err
	}
	return t.prog.Dataset, nil
}

// runPhase fans ph's units out at the crawl's concurrency, commits each
// through the tracker, then advances Progress.Phase, saves and emits the
// phase's progress line.
func (c *Crawler) runPhase(ctx context.Context, t *tracker, ph phase) error {
	units := ph.units(t.prog)
	g := httpkit.NewGroup(c.cfg.Concurrency)
	for _, u := range units {
		// Planner partition: a unit on a quarantined instance is resolved
		// up front with a gap entry, never scheduled, never dialed.
		if u.host != "" && c.plan.decide(u.host) == planSkip {
			c.rep.noteSkip(u.host)
			c.rep.note(ph.gaps, u.key, errQuarantineSkip)
			t.update(func(p *Progress) { ph.mark(p, u.key) })
			continue
		}
		g.Go(func() error {
			commit, err := u.fetch(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if ph.gaps == nil {
					return err
				}
				c.rep.note(ph.gaps, u.key, err)
			}
			if commit == nil {
				commit = func(p *Progress) { ph.mark(p, u.key) }
			}
			t.update(commit)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		// On cancellation every in-flight worker returns the same context
		// error; collapse that pile to the one.
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return fmt.Errorf("crawler: %s: %w", ph.name, err)
	}
	t.update(func(p *Progress) {
		if ph.finish != nil {
			ph.finish(p)
		}
		p.Phase = ph.id
	})
	if err := t.flush(); err != nil {
		return err
	}
	if c.cfg.Logf != nil {
		var args []any
		if ph.count != nil {
			args = append(args, ph.count(t.prog.Dataset))
		}
		c.cfg.Logf(ph.line, args...)
	}
	return nil
}

// indexUnits is §3.1's instance index: one unit, fatal on failure.
func (c *Crawler) indexUnits(*Progress) []unit {
	return []unit{{key: "index", fetch: func(ctx context.Context) (func(*Progress), error) {
		instances, err := c.index.List(ctx)
		if err != nil {
			return nil, err
		}
		return func(p *Progress) { p.Dataset.Instances = instances }, nil
	}}}
}

// queryUnits runs the instance-link and keyword query families over the
// collection window, one unit per query; finishCollection dedups the
// results into ds.CollectedTweets.
func (c *Crawler) queryUnits(p *Progress) []unit {
	start, end := vclock.CollectionStart, vclock.CollectionEnd.Add(24*time.Hour)
	var units []unit
	add := func(q string, class QueryClass) {
		if p.DoneQueries[q] {
			return
		}
		units = append(units, unit{key: q, fetch: func(ctx context.Context) (func(*Progress), error) {
			tweets, err := underLimit(ctx, c, c.twHost, func() ([]TweetJSON, error) {
				return c.tw.SearchAll(ctx, q, start, end, c.cfg.MaxSearchPages)
			})
			if err != nil {
				return nil, err
			}
			return func(p *Progress) {
				for _, tw := range tweets {
					prev, dup := p.SeenTweets[tw.ID]
					// Instance-link class wins on dedup: a tweet carrying a
					// handle link is strictly more informative. The rule is
					// order-independent, so resumed runs converge to the
					// same corpus.
					if !dup || (prev.Class == ClassKeyword && class == ClassInstanceLink) {
						p.SeenTweets[tw.ID] = SeenTweet{Tweet: tw, Class: class}
					}
				}
				p.DoneQueries[q] = true
			}, nil
		}})
	}
	for _, inst := range p.Dataset.Instances {
		add(fmt.Sprintf("url:%q", inst.Name), ClassInstanceLink)
	}
	for _, kw := range c.cfg.Keywords {
		add(kw, ClassKeyword)
	}
	return units
}

// finishCollection turns the dedup accumulator into the time-ordered
// corpus and clears the phase's resume state.
func finishCollection(p *Progress) {
	for _, h := range p.SeenTweets {
		at, ok := parseTweetTime(h.Tweet.CreatedAt)
		if !ok {
			continue
		}
		p.Dataset.CollectedTweets = append(p.Dataset.CollectedTweets, CollectedTweet{
			ID:       h.Tweet.ID,
			AuthorID: h.Tweet.AuthorID,
			Time:     at,
			Text:     h.Tweet.Text,
			Source:   h.Tweet.Source,
			Class:    h.Class,
		})
	}
	sort.Slice(p.Dataset.CollectedTweets, func(i, j int) bool {
		a, b := p.Dataset.CollectedTweets[i], p.Dataset.CollectedTweets[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		return a.ID < b.ID
	})
	p.SeenTweets = map[string]SeenTweet{}
	p.DoneQueries = map[string]bool{}
}

// authorUnits is one unit per collected author, in ID order.
func (c *Crawler) authorUnits(p *Progress) []unit {
	known := match.KnownInstances{}
	for _, inst := range p.Dataset.Instances {
		known[strings.ToLower(inst.Name)] = true
	}
	// Group collected tweets per author.
	byAuthor := map[string][]string{}
	for _, tw := range p.Dataset.CollectedTweets {
		byAuthor[tw.AuthorID] = append(byAuthor[tw.AuthorID], tw.Text)
	}
	authors := make([]string, 0, len(byAuthor))
	for a := range byAuthor {
		if !p.DoneAuthors[a] {
			authors = append(authors, a)
		}
	}
	sort.Strings(authors)
	units := make([]unit, 0, len(authors))
	for _, a := range authors {
		units = append(units, unit{key: a, fetch: func(ctx context.Context) (func(*Progress), error) {
			return c.mapAuthor(ctx, a, byAuthor[a], known)
		}})
	}
	return units
}

// mapAuthor applies §3.1's hierarchical matching to one author, then
// verifies the mapped handle against its instance. A nil commit drops
// the author: no match, or a handle that does not resolve.
func (c *Crawler) mapAuthor(ctx context.Context, authorID string, tweets []string, known match.KnownInstances) (func(*Progress), error) {
	user, err := underLimit(ctx, c, c.twHost, func() (*UserJSON, error) {
		return c.tw.UserByID(ctx, authorID)
	})
	if err != nil {
		return nil, err
	}
	profile := match.Profile{
		Username:    user.Username,
		DisplayName: user.Name,
		Description: user.Description,
		Location:    user.Location,
		URL:         user.URL,
	}
	res, ok := match.Map(profile, tweets, known)
	if !ok {
		return nil, nil
	}
	pair := AccountPair{
		TwitterID:        user.ID,
		TwitterUsername:  user.Username,
		Verified:         user.Verified,
		TwitterFollowers: user.PublicMetrics.Followers,
		TwitterFollowing: user.PublicMetrics.Following,
		Handle:           res.Handle,
		MatchSource:      res.Source,
		SameUsername:     strings.EqualFold(user.Username, res.Handle.Username),
	}
	if at, ok := parseTweetTime(user.CreatedAt); ok {
		pair.TwitterCreatedAt = at
	}
	// Verify against the instance and reconstruct the user's
	// migration chain. Three cases:
	//  - plain account: no move involved;
	//  - we found the ABANDONED account (it has a moved record
	//    pointing forward);
	//  - we found the DESTINATION account (its also_known_as
	//    alias points backwards at the first instance).
	if acc, lerr := underPlan(ctx, c, strings.ToLower(res.Handle.Domain), func() (*MastoAccountJSON, error) {
		return c.masto.Lookup(ctx, res.Handle.Domain, res.Handle.Username)
	}); lerr == nil {
		pair.MastodonVerified = true
		pair.MastodonAccountID = acc.ID
		pair.MastodonFollowers = acc.FollowersCount
		pair.MastodonFollowing = acc.FollowingCount
		pair.MastodonStatuses = acc.StatusesCount
		if at, ok := parseTweetTime(acc.CreatedAt); ok {
			pair.MastodonCreatedAt = at
		}
		switch {
		case acc.Moved != nil:
			moved := &MovedRecord{AccountID: acc.Moved.ID}
			moved.Handle = handleFromURL(acc.Moved.URL, acc.Moved.Username)
			if at, ok := parseTweetTime(acc.Moved.CreatedAt); ok {
				moved.MovedAt = at
			}
			pair.Moved = moved
			// Counts on the live account are the meaningful ones.
			pair.MastodonFollowers = acc.Moved.FollowersCount
			pair.MastodonFollowing = acc.Moved.FollowingCount
			pair.MastodonStatuses = acc.Moved.StatusesCount
		case len(acc.AlsoKnownAs) > 0:
			// We discovered the destination; normalize the pair
			// so Handle is always the FIRST account.
			oldHandle := handleFromURL(acc.AlsoKnownAs[0], usernameFromURL(acc.AlsoKnownAs[0]))
			old, lerr := underPlan(ctx, c, strings.ToLower(oldHandle.Domain), func() (*MastoAccountJSON, error) {
				return c.masto.Lookup(ctx, oldHandle.Domain, oldHandle.Username)
			})
			if lerr != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if lerr == nil {
				pair.Moved = &MovedRecord{
					Handle:    res.Handle,
					AccountID: acc.ID,
				}
				if at, ok := parseTweetTime(acc.CreatedAt); ok {
					pair.Moved.MovedAt = at
				}
				pair.Handle = oldHandle
				pair.MastodonAccountID = old.ID
				pair.SameUsername = strings.EqualFold(user.Username, oldHandle.Username)
				if at, ok := parseTweetTime(old.CreatedAt); ok {
					pair.MastodonCreatedAt = at
				}
			}
		}
	} else if httpkit.IsStatus(lerr, 404) {
		// Handle does not resolve: false-positive mapping, drop.
		return nil, nil
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return func(p *Progress) {
		p.Dataset.Pairs = append(p.Dataset.Pairs, pair)
		p.DoneAuthors[authorID] = true
	}, nil
}

// handleFromURL reconstructs a handle from an account URL plus username.
func handleFromURL(u, username string) match.Handle {
	h := match.Handle{Username: username}
	if rest, ok := strings.CutPrefix(u, "https://"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			h.Domain = rest[:i]
		}
	}
	return h
}

// usernameFromURL extracts the @user segment of a profile URL.
func usernameFromURL(u string) string {
	if i := strings.LastIndex(u, "/@"); i >= 0 {
		return u[i+2:]
	}
	return ""
}

// twitterTimelineUnits fetches every pair's tweets with the §3.2
// failure taxonomy. Presence in ds.TwitterTimelines is the resume
// marker: every finished unit (including taxonomy failures) writes an
// entry.
func (c *Crawler) twitterTimelineUnits(p *Progress) []unit {
	start, end := vclock.StudyStart, vclock.StudyEnd.Add(24*time.Hour)
	var units []unit
	for i := range p.Dataset.Pairs {
		id := p.Dataset.Pairs[i].TwitterID
		if _, done := p.Dataset.TwitterTimelines[id]; done {
			continue
		}
		units = append(units, unit{key: id, fetch: func(ctx context.Context) (func(*Progress), error) {
			tweets, err := underLimit(ctx, c, c.twHost, func() ([]TweetJSON, error) {
				return c.tw.Timeline(ctx, id, start, end)
			})
			tl := &TwitterTimeline{State: StateOK}
			switch {
			case httpkit.IsStatus(err, 404):
				tl.State = StateDeleted
			case httpkit.IsStatus(err, 403):
				tl.State = StateSuspended
			case httpkit.IsStatus(err, 401):
				tl.State = StateProtected
			case err != nil:
				return nil, err
			}
			for _, tw := range tweets {
				at, ok := parseTweetTime(tw.CreatedAt)
				if !ok {
					continue
				}
				tl.Posts = append(tl.Posts, Post{ID: tw.ID, Time: at, Text: tw.Text, Source: tw.Source, Toxicity: -1})
			}
			return func(p *Progress) { p.Dataset.TwitterTimelines[id] = tl }, nil
		}})
	}
	return units
}

// mastodonTimelineUnits fetches every pair's statuses, spanning both
// instances for moved accounts. Presence in ds.MastodonTimelines is the
// resume marker.
func (c *Crawler) mastodonTimelineUnits(p *Progress) []unit {
	var units []unit
	for i := range p.Dataset.Pairs {
		pair := &p.Dataset.Pairs[i]
		if _, done := p.Dataset.MastodonTimelines[pair.TwitterID]; done {
			continue
		}
		units = append(units, unit{
			key:  pair.TwitterID,
			host: strings.ToLower(pair.Handle.Domain),
			fetch: func(ctx context.Context) (func(*Progress), error) {
				return c.mastodonTimeline(ctx, pair)
			},
		})
	}
	return units
}

// mastodonTimeline crawls one pair's statuses. A failure after the first
// instance answered keeps the posts fetched so far.
func (c *Crawler) mastodonTimeline(ctx context.Context, pair *AccountPair) (func(*Progress), error) {
	tl := &MastodonTimeline{State: StateOK}
	fetch := func(domain, accountID string) error {
		sts, err := underPlan(ctx, c, strings.ToLower(domain), func() ([]MastoStatusJSON, error) {
			return c.masto.Statuses(ctx, domain, accountID)
		})
		if err != nil {
			return err
		}
		for _, s := range sts {
			at, ok := parseTweetTime(s.CreatedAt)
			if !ok {
				continue
			}
			tl.Posts = append(tl.Posts, Post{ID: s.ID, Time: at, Text: stripHTML(s.Content), Domain: domain, Toxicity: -1})
		}
		return nil
	}
	var err error
	if pair.MastodonAccountID != "" {
		err = fetch(pair.Handle.Domain, pair.MastodonAccountID)
		if err == nil && pair.Moved != nil {
			err = fetch(pair.Moved.Handle.Domain, pair.Moved.AccountID)
		}
	} else {
		// Unverified pair: try a fresh lookup (it may have failed
		// transiently during mapping).
		acc, lerr := underPlan(ctx, c, strings.ToLower(pair.Handle.Domain), func() (*MastoAccountJSON, error) {
			return c.masto.Lookup(ctx, pair.Handle.Domain, pair.Handle.Username)
		})
		if lerr != nil {
			err = lerr
		} else {
			err = fetch(pair.Handle.Domain, acc.ID)
		}
	}
	switch {
	case err != nil && httpkit.IsStatus(err, 404):
		tl.State = StateInstanceDown // account vanished
		err = nil
	case err != nil:
		tl.State = StateInstanceDown
	case len(tl.Posts) == 0:
		tl.State = StateNoStatuses
	}
	sort.Slice(tl.Posts, func(a, b int) bool { return tl.Posts[a].Time.Before(tl.Posts[b].Time) })
	return func(p *Progress) { p.Dataset.MastodonTimelines[pair.TwitterID] = tl }, err
}

// stripHTML removes the <p> wrapper and entities from status content.
func stripHTML(s string) string {
	s = strings.ReplaceAll(s, "<p>", "")
	s = strings.ReplaceAll(s, "</p>", "\n")
	s = strings.ReplaceAll(s, "<br>", "\n")
	s = strings.ReplaceAll(s, "<br/>", "\n")
	s = strings.ReplaceAll(s, "&amp;", "&")
	s = strings.ReplaceAll(s, "&lt;", "<")
	s = strings.ReplaceAll(s, "&gt;", ">")
	s = strings.ReplaceAll(s, "&#39;", "'")
	s = strings.ReplaceAll(s, "&#34;", `"`)
	s = strings.ReplaceAll(s, "&quot;", `"`)
	return strings.TrimSpace(s)
}

// followeeUnits implements §3.3: a stratified sample straddling the
// median followee count — half the sample from above the median, half
// from below — then full followee crawls on both platforms. The sample
// is a pure function of the mapped pairs, so a resumed run recomputes it
// identically; DoneFollowees marks the units already crawled (failures
// produce no dataset entry, hence the explicit set).
func (c *Crawler) followeeUnits(p *Progress) []unit {
	ds := p.Dataset
	// Eligible: pairs whose Twitter account is crawlable.
	var eligible []*AccountPair
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if tl := ds.TwitterTimelines[p.TwitterID]; tl != nil && tl.State == StateOK {
			eligible = append(eligible, p)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	sort.Slice(eligible, func(i, j int) bool {
		if eligible[i].TwitterFollowing != eligible[j].TwitterFollowing {
			return eligible[i].TwitterFollowing < eligible[j].TwitterFollowing
		}
		return eligible[i].TwitterID < eligible[j].TwitterID
	})
	n := len(eligible)
	half := int(float64(n) * c.cfg.FolloweeSampleFrac / 2)
	if half < 1 {
		half = 1
	}
	median := n / 2
	sample := map[*AccountPair]bool{}
	// Evenly spaced picks below and above the median: deterministic and
	// spread across the distribution, which is the point of the
	// stratification (representativity, §3.3).
	pick := func(lo, hi, k int) {
		if hi <= lo {
			return
		}
		span := hi - lo
		for i := 0; i < k; i++ {
			idx := lo + (i*span)/k + span/(2*k)
			if idx >= hi {
				idx = hi - 1
			}
			sample[eligible[idx]] = true
		}
	}
	pick(0, median, half)
	pick(median, n, half)
	// All detected switchers join the sample: the §5.3 switch-influence
	// analysis (Fig. 10) needs their ego networks, and at a 4% switch
	// rate a plain 10% sample would catch almost none on scaled-down
	// worlds.
	for _, p := range eligible {
		if p.Moved != nil {
			sample[p] = true
		}
	}

	sampled := make([]*AccountPair, 0, len(sample))
	for pair := range sample {
		if !p.DoneFollowees[pair.TwitterID] {
			sampled = append(sampled, pair)
		}
	}
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].TwitterID < sampled[j].TwitterID })
	units := make([]unit, 0, len(sampled))
	for _, pair := range sampled {
		units = append(units, unit{key: pair.TwitterID, fetch: func(ctx context.Context) (func(*Progress), error) {
			return c.followees(ctx, pair)
		}})
	}
	return units
}

// followees crawls one sampled user's followees on both platforms. A
// Mastodon-side failure still commits the Twitter side.
func (c *Crawler) followees(ctx context.Context, pair *AccountPair) (func(*Progress), error) {
	users, err := underLimit(ctx, c, c.twHost, func() ([]UserJSON, error) {
		return c.tw.Following(ctx, pair.TwitterID)
	})
	if err != nil {
		return nil, err
	}
	refs := make([]FolloweeRef, 0, len(users))
	for _, u := range users {
		refs = append(refs, FolloweeRef{TwitterID: u.ID, Username: u.Username})
	}
	// Mastodon following of the live account.
	domain, accID := pair.Handle.Domain, pair.MastodonAccountID
	if pair.Moved != nil {
		domain, accID = pair.Moved.Handle.Domain, pair.Moved.AccountID
	}
	var handles []string
	if accID != "" {
		var accounts []MastoAccountJSON
		accounts, err = underPlan(ctx, c, strings.ToLower(domain), func() ([]MastoAccountJSON, error) {
			return c.masto.Following(ctx, domain, accID)
		})
		if err == nil {
			handles = make([]string, 0, len(accounts))
		}
		for _, a := range accounts {
			acct := a.Acct
			if !strings.Contains(acct, "@") {
				acct = acct + "@" + domain
			}
			handles = append(handles, "@"+acct)
		}
	}
	return func(p *Progress) {
		p.Dataset.TwitterFollowees[pair.TwitterID] = refs
		if handles != nil {
			p.Dataset.MastodonFollowing[pair.TwitterID] = handles
		}
		p.DoneFollowees[pair.TwitterID] = true
	}, err
}

// activityUnits fetches weekly activity for every instance that
// received a mapped migrant, one unit per domain.
func (c *Crawler) activityUnits(p *Progress) []unit {
	domains := map[string]bool{}
	for _, pair := range p.Dataset.Pairs {
		domains[pair.Handle.Domain] = true
		if pair.Moved != nil {
			domains[pair.Moved.Handle.Domain] = true
		}
	}
	sorted := make([]string, 0, len(domains))
	for d := range domains {
		if !p.DoneActivity[d] {
			sorted = append(sorted, d)
		}
	}
	sort.Strings(sorted)
	units := make([]unit, 0, len(sorted))
	for _, domain := range sorted {
		host := strings.ToLower(domain)
		units = append(units, unit{key: domain, host: host, fetch: func(ctx context.Context) (func(*Progress), error) {
			acts, err := underPlan(ctx, c, host, func() ([]ActivityJSON, error) {
				return c.masto.Activity(ctx, domain)
			})
			if err != nil {
				return nil, err
			}
			weeks := make([]WeekActivity, 0, len(acts))
			for _, a := range acts {
				wk, werr := parseUnix(a.Week)
				if werr != nil {
					continue
				}
				st, _ := atoiSafe(a.Statuses)
				lg, _ := atoiSafe(a.Logins)
				rg, _ := atoiSafe(a.Registrations)
				weeks = append(weeks, WeekActivity{Week: wk, Statuses: st, Logins: lg, Registrations: rg})
			}
			sort.Slice(weeks, func(i, j int) bool { return weeks[i].Week.Before(weeks[j].Week) })
			return func(p *Progress) {
				p.Dataset.Activity[domain] = weeks
				p.DoneActivity[domain] = true
			}, nil
		}})
	}
	return units
}

func atoiSafe(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}

// toxicityUnits labels every crawled post via the Perspective-style
// service (§6.3), one unit per post. Already-scored posts (Toxicity >=
// 0, e.g. restored from a checkpoint) are done. Gap keys carry the
// platform, and the instance for Mastodon statuses, so post IDs from
// different ID spaces cannot collide.
func (c *Crawler) toxicityUnits(p *Progress) []unit {
	var units []unit
	add := func(posts []Post, key func(*Post) string) {
		for i := range posts {
			post := &posts[i]
			if post.Toxicity >= 0 {
				continue
			}
			text := post.Text
			units = append(units, unit{key: key(post), fetch: func(ctx context.Context) (func(*Progress), error) {
				v, err := underLimit(ctx, c, c.toxHost, func() (float64, error) {
					return c.tox.Score(ctx, text)
				})
				if err != nil {
					return nil, err
				}
				return func(*Progress) { post.Toxicity = v }, nil
			}})
		}
	}
	for _, tl := range p.Dataset.TwitterTimelines {
		add(tl.Posts, func(post *Post) string { return "twitter/" + post.ID })
	}
	for _, tl := range p.Dataset.MastodonTimelines {
		add(tl.Posts, func(post *Post) string { return "mastodon/" + post.Domain + "/" + post.ID })
	}
	return units
}
