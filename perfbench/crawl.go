package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"flock/internal/birdsite"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/toxsvc"
)

// crawlPhases are the seven §3 crawl phases plus toxicity scoring, in
// run order. Each phase ends at the crawler's progress line that starts
// with logPrefix; the last one ends when Run returns.
var crawlPhases = []struct{ name, logPrefix string }{
	{"index", "index:"},
	{"tweets", "collected "},
	{"mapping", "mapped "},
	{"twitter_tl", "twitter timelines:"},
	{"mastodon_tl", "mastodon timelines:"},
	{"followees", "followee sample:"},
	{"activity", "activity:"},
	{"toxicity", "toxicity scoring done"},
}

// httpHosts are the host classes HTTP counts are kept for; every
// Mastodon instance falls in "fediverse".
var httpHosts = []string{"birdsite", "indexsvc", "toxsvc", "fediverse"}

// phaseOf maps a crawler progress line to the phase it closes.
func phaseOf(line string) (int, bool) {
	for i, p := range crawlPhases {
		if strings.HasPrefix(line, p.logPrefix) {
			return i, true
		}
	}
	return 0, false
}

func hostClass(host string) int {
	switch host {
	case birdsite.Host:
		return 0
	case indexsvc.Host:
		return 1
	case toxsvc.Host:
		return 2
	}
	return 3
}

type httpCell struct{ requests, failed, busyNS atomic.Int64 }

// countingDoer wraps the environment's *http.Client, unmodified, and
// counts every HTTP attempt the crawl makes (retries included) by crawl
// phase and host class. An attempt fails on a transport error, a 429 or
// a 5xx. With timed set it also sums each attempt's round-trip time,
// from Do to the response headers.
type countingDoer struct {
	next  httpkit.Doer
	timed bool
	phase atomic.Int32
	cells [8][4]httpCell // [len(crawlPhases)][len(httpHosts)]
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	cell := &d.cells[d.phase.Load()][hostClass(req.URL.Hostname())]
	var t0 time.Time
	if d.timed {
		t0 = time.Now()
	}
	resp, err := d.next.Do(req)
	if d.timed {
		cell.busyNS.Add(int64(time.Since(t0)))
	}
	cell.requests.Add(1)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		cell.failed.Add(1)
	}
	return resp, err
}

// totals sums requests and failures over phases and hosts.
func (d *countingDoer) totals() (requests, failed int64) {
	for p := range d.cells {
		for h := range d.cells[p] {
			requests += d.cells[p][h].requests.Load()
			failed += d.cells[p][h].failed.Load()
		}
	}
	return requests, failed
}

// crawlRun is one finished crawl with its HTTP accounting.
type crawlRun struct {
	ds     *crawler.Dataset
	report *crawler.CrawlReport
	doer   *countingDoer
	phases []*span // one per crawlPhases entry; nil when untraced
}

// runCrawl runs the §3 crawl against env the way core.Env.Crawl does,
// but with crawler.New so that Transport.HTTP can be a countingDoer.
// core.Env.Crawl cannot take a wrapped transport: it flushes idle
// connections only when env.Client.Transport is an *http.Transport, so
// a wrapped one would leave down instances reachable and change the
// dataset. Here the wrapper sits outside the unmodified client, and the
// BeforeTimelines hook applies the outages and flushes the client's
// idle connections itself. The self-test and every reproduce run check
// that the result matches core's.
//
// concurrency is the crawl's in-flight bound. With tr set, each phase
// becomes a span, tiled by the crawler's progress lines, and HTTP
// attempts are attributed to the phase that made them.
func runCrawl(ctx context.Context, env *core.Env, scoreToxicity bool, concurrency int, tr *tracer) (*crawlRun, error) {
	doer := &countingDoer{next: env.Client, timed: tr != nil}
	run := &crawlRun{doer: doer}
	var logf func(string, ...any)
	var cur *span
	var seqErr error
	if tr != nil {
		outer := tr.begin("crawler.run")
		defer func() { tr.end(outer) }()
		cur = tr.begin("crawler." + crawlPhases[0].name)
		run.phases = append(run.phases, cur)
		logf = func(format string, args ...any) {
			p, ok := phaseOf(format)
			if !ok {
				return
			}
			if p != int(doer.phase.Load()) {
				seqErr = fmt.Errorf("perfbench: crawl progress line %q out of phase order", format)
				return
			}
			if p+1 < len(crawlPhases) {
				doer.phase.Store(int32(p + 1))
				cur = tr.mark(cur, "crawler."+crawlPhases[p+1].name)
				run.phases = append(run.phases, cur)
			}
		}
	}
	c := crawler.New(crawler.Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       crawler.Transport{HTTP: doer, Concurrency: concurrency},
		ScoreToxicity:   scoreToxicity,
		Logf:            logf,
		BeforeTimelines: func() {
			tr.do("fediverse.apply_outages", func() {
				env.Fedi.ApplyOutages(env.Fabric)
				env.Client.CloseIdleConnections()
			})
		},
	})
	ds, err := c.Run(ctx)
	if tr != nil {
		tr.end(cur)
		if seqErr == nil && len(run.phases) != len(crawlPhases) {
			seqErr = fmt.Errorf("perfbench: crawl ended in phase %s", cur.Name)
		}
	}
	if err != nil {
		return nil, err
	}
	if seqErr != nil {
		return nil, seqErr
	}
	run.ds, run.report = ds, c.Report()
	return run, nil
}

// restoreHosts brings every fabric host back up, so each crawl job sees
// the same outage sequence from the start.
func restoreHosts(env *core.Env) {
	for _, h := range env.Fabric.Hosts() {
		env.Fabric.SetDown(h, false)
	}
}
