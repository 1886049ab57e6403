package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer: a job, a public function of one
// module, or one crawl phase. Spans nest by Parent; a job's spans form
// one tree rooted at the job span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Job    string  `json:"job"`    // "setup<K>" (world K's set-up) or "job<N>"
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	Alloc  float64 `json:"alloc_mb"` // heap bytes allocated inside the span
	open   bool
	alloc0 uint64
}

func (s *span) wall() float64 { return s.End - s.Start }

// tracer records spans in memory, all from the benchmark's own
// goroutine, and writes them out when the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the same job code runs
// either way.
type tracer struct {
	t0    time.Time
	job   string
	spans []*span
	stack []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Job: t.job, Name: name, open: true, alloc0: heapAllocs()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	s.Start = t.now()
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = t.now()
	s.Alloc = mb(heapAllocs() - s.alloc0)
	s.open = false
	if n := len(t.stack); n == 0 || t.stack[n-1] != s {
		panic("perfbench: span " + s.Name + " closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	s := t.begin(name)
	fn()
	t.end(s)
}

// mark closes the open span s and opens its successor name at the same
// instant, so consecutive phases tile their parent with no gap.
func (t *tracer) mark(s *span, name string) *span {
	if t == nil {
		return nil
	}
	t.end(s)
	return t.begin(name)
}

// finish computes self times and checks the span accounting: children
// lie inside their parent and do not overlap, so a span's children plus
// its self time add up to its wall time.
func (t *tracer) finish() error {
	kids := map[int][]*span{}
	for _, s := range t.spans {
		if s.open {
			return fmt.Errorf("perfbench: span %s (%s) never closed", s.Name, s.Job)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	const eps = 1e-6 // clock reads are nanosecond; allow float rounding
	for _, p := range t.spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var sum float64
		prevEnd := p.Start
		for _, c := range cs {
			if c.Start < prevEnd-eps || c.End > p.End+eps {
				return fmt.Errorf("perfbench: span %s overlaps a sibling or leaves its parent %s", c.Name, p.Name)
			}
			sum += c.wall()
			prevEnd = c.End
		}
		p.Self = p.wall() - sum
		if p.Self < -eps {
			return fmt.Errorf("perfbench: span %s: children %.9fs exceed wall %.9fs", p.Name, sum, p.wall())
		}
	}
	return nil
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTable prints, per span name, the medians over the given jobs of
// its total time, self time and allocation within a job.
func (t *tracer) layerTable(w io.Writer, jobs []string) {
	per := map[string][][3]float64{}
	var names []string
	for _, job := range jobs {
		for name, v := range t.layerTotals(job) {
			if per[name] == nil {
				names = append(names, name)
			}
			per[name] = append(per[name], v)
		}
	}
	col := func(name string, i int) float64 {
		var xs []float64
		for _, v := range per[name] {
			xs = append(xs, v[i])
		}
		return median(xs)
	}
	sort.Slice(names, func(i, j int) bool { return col(names[i], 0) > col(names[j], 0) })
	fmt.Fprintf(w, "%-28s %5s %12s %12s %12s\n", "span (median per traced job)", "jobs", "total_s", "self_s", "alloc_mb")
	for _, name := range names {
		fmt.Fprintf(w, "%-28s %5d %12.6f %12.6f %12.3f\n", name, len(per[name]), col(name, 0), col(name, 1), col(name, 2))
	}
}

// layerTotals sums, by span name within one job, wall time, self time
// and allocation.
func (t *tracer) layerTotals(job string) map[string][3]float64 {
	out := map[string][3]float64{}
	for _, s := range t.spans {
		if s.Job == job {
			v := out[s.Name]
			out[s.Name] = [3]float64{v[0] + s.wall(), v[1] + s.Self, v[2] + s.Alloc}
		}
	}
	return out
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated by the
// process.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
