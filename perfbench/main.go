// Command perfbench is the repository's benchmark: it times the whole
// pipeline (world, simulated services, §3 crawl, RQ1-RQ4 analyses,
// report) end to end on three workloads, and layer by layer in a traced
// run. See README.md for the workloads, the metrics and how each layer
// metric relates to the end-to-end ones.
//
//	bash perfbench/run.sh --workload reproduce --seed 99 --seconds 15 --trace 0
//
// One run sets up once, runs one untimed warm-up job, then runs timed
// jobs of the same work until --seconds have passed. Every job's output
// is checked against the warm-up's and, for pinned seeds, against a
// golden digest. The last line of standard output is the result as one
// JSON object.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sha      string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record describes the run: where and how it was measured, and the raw
// per-job numbers behind the medians.
type record struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Traced     bool          `json:"traced"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPU        string        `json:"cpu"`
	GoVersion  string        `json:"go"`
	SHA        string        `json:"sha"`
	Worlds     []worldRecord `json:"worlds"`
	SetupS     []float64     `json:"setup_s"` // per world: preparation + warm-up
	Jobs       int           `json:"jobs"`
	JobS       []float64     `json:"job_s"`
	TracedJobS []float64     `json:"traced_job_s,omitempty"`
	Ops        int64         `json:"ops"`
	FailedOps  int64         `json:"failed_ops"`
	FailedFrac float64       `json:"failed_frac"`
	Mismatches []string      `json:"mismatches,omitempty"`
	SpanDump   string        `json:"span_dump,omitempty"`
}

// worldRecord is one world's identity and its reference output.
type worldRecord struct {
	Seed    uint64  `json:"seed"`
	Pairs   int     `json:"pairs"`
	Digests digests `json:"digests"`
	Golden  string  `json:"golden"` // matched, MISMATCH or unpinned
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "reproduce", "workload: reproduce, crawl_scored or figures")
	flag.Uint64Var(&o.seed, "seed", 99, "world seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "start timed jobs until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.sha, "sha", "unknown", "source revision to record with the result")
	flag.Parse()
	o.trace = trace == 1

	res, rec, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rb, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", rb)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// jobStats are the process-level costs of one timed job.
type jobStats struct {
	wall, cpu, gcCPU float64
	alloc, gcCycles  uint64
}

// runWorld is one of a run's worlds: its workload state and the digests
// every job on it must reproduce.
type runWorld struct {
	w    workload
	want digests
}

func run(ctx context.Context, o options) (*result, *record, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: unknown workload %q (want reproduce, crawl_scored or figures)", o.workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	rec := &record{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), SHA: o.sha,
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, per world: prepare the inputs, then run the warm-up job,
	// whose output is the world's reference.
	var worlds []*runWorld
	defer func() {
		for _, x := range worlds {
			x.w.close()
		}
	}()
	goldenOK := true
	for k := 0; k < sp.worlds; k++ {
		seed := o.seed + uint64(k)*worldStride
		x := &runWorld{w: sp.make(seed, nproc, filepath.Join(".bench_build", fmt.Sprintf("figures-data-%d", seed)))}
		worlds = append(worlds, x)
		if tr != nil {
			tr.job = fmt.Sprintf("setup%d", k+1)
		}
		t0 := time.Now()
		s := tr.begin("setup")
		err := x.w.setup(ctx, tr)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("perfbench: set-up, world seed %d: %w", seed, err)
		}
		ref, err := x.w.warmup(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("perfbench: warm-up, world seed %d: %w", seed, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		if x.want, err = sums(ref); err != nil {
			return nil, nil, err
		}
		wr := worldRecord{Seed: seed, Pairs: len(ref.ds.Pairs), Digests: x.want, Golden: "unpinned"}
		if g, ok := golden[goldenKey(o.workload, seed)]; ok {
			wr.Golden = "matched"
			if g != x.want {
				wr.Golden = "MISMATCH"
				goldenOK = false
			}
		}
		rec.Worlds = append(rec.Worlds, wr)
	}

	// Timed jobs cycle through the worlds. A traced run alternates
	// traced and untraced rounds over the worlds, so their medians give
	// the tracing overhead.
	minJobs := max(3, 2*len(worlds))
	if o.trace {
		minJobs = max(4, 2*len(worlds))
	}
	var cpuS, allocMB, pairsPerS, liveMB []float64
	var layerJobs []map[string]float64
	var tracedJobs []string
	failedJobs := 0
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start).Seconds() < o.seconds; i++ {
		x := worlds[i%len(worlds)]
		var jt *tracer
		if tr != nil && (i/len(worlds))%2 == 0 {
			jt = tr
			jt.job = fmt.Sprintf("job%d", i+1)
			tracedJobs = append(tracedJobs, jt.job)
		}
		// Every job starts from the same heap: the previous output
		// collected and its memory returned to the OS.
		debug.FreeOSMemory()
		out, st, err := timeJob(ctx, x.w, jt)
		if err != nil {
			return nil, nil, fmt.Errorf("perfbench: job %d: %w", i+1, err)
		}
		got, err := sums(out)
		if err != nil {
			return nil, nil, err
		}
		rec.Ops += out.ops
		rec.FailedOps += out.failedOps
		if got != x.want {
			failedJobs++
			rec.FailedOps += out.ops - out.failedOps
			rec.Mismatches = append(rec.Mismatches, fmt.Sprintf("job %d: %+v != %+v", i+1, got, x.want))
		}
		// The live heap with the job's output still referenced.
		runtime.GC()
		live := mb(readUint64("/gc/heap/live:bytes"))
		runtime.KeepAlive(out)
		if jt == nil {
			rec.JobS = append(rec.JobS, st.wall)
			cpuS = append(cpuS, st.cpu)
			allocMB = append(allocMB, mb(st.alloc))
			pairsPerS = append(pairsPerS, float64(len(out.ds.Pairs))/st.wall)
			liveMB = append(liveMB, live)
			continue
		}
		rec.TracedJobS = append(rec.TracedJobS, st.wall)
		lv := layerValues(tr, jt.job, out.crawl)
		lv["runtime.gc_cpu_s"] = st.gcCPU
		lv["runtime.gc_cycles"] = float64(st.gcCycles)
		lv["failed_frac"] = float64(out.failedOps) / float64(out.ops)
		if out.cacheLen > 0 {
			lv["textsim.cache_len"] = float64(out.cacheLen)
		}
		layerJobs = append(layerJobs, lv)
	}
	rec.Jobs = len(rec.JobS) + len(rec.TracedJobS)
	rec.FailedFrac = float64(rec.FailedOps) / float64(rec.Ops)

	res := &result{
		Correct:   failedJobs == 0 && goldenOK,
		Attempted: rec.Jobs,
		Failed:    failedJobs,
		Metrics:   map[string]metricValue{},
	}
	if !o.trace {
		vals := map[string]float64{
			"setup_s":      median(rec.SetupS),
			"job_s":        median(rec.JobS),
			"pairs_per_s":  median(pairsPerS),
			"cpu_s":        median(cpuS),
			"alloc_mb":     median(allocMB),
			"live_heap_mb": median(liveMB),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		return res, rec, nil
	}

	if err := tr.finish(); err != nil {
		return nil, nil, err
	}
	run, extra := worlds[len(worlds)-1].w.setupLayers()
	setupLV := layerValues(tr, fmt.Sprintf("setup%d", len(worlds)), run)
	for k, v := range extra {
		setupLV[k] = v
	}
	vals := pickLayers(layerJobs, setupLV)
	vals["trace.overhead_s"] = median(rec.TracedJobS) - median(rec.JobS)
	for _, m := range perLayer() {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	tr.layerTable(os.Stdout, tracedJobs)
	fmt.Printf("tracing overhead: traced job_s %.6f - untraced job_s %.6f = %.6f s\n",
		median(rec.TracedJobS), median(rec.JobS), vals["trace.overhead_s"])
	rec.SpanDump = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := tr.dump(rec.SpanDump); err != nil {
		return nil, nil, fmt.Errorf("perfbench: span dump: %w", err)
	}
	return res, rec, nil
}

// timeJob runs one job and measures its wall time, process CPU time,
// heap allocation and garbage collection.
func timeJob(ctx context.Context, w workload, tr *tracer) (*output, jobStats, error) {
	cpu0, alloc0 := cpuSeconds(), heapAllocs()
	gcCPU0, gc0 := readFloat64("/cpu/classes/gc/total:cpu-seconds"), readUint64("/gc/cycles/total:gc-cycles")
	t0 := time.Now()
	s := tr.begin("job")
	out, err := w.job(ctx, tr)
	tr.end(s)
	st := jobStats{wall: time.Since(t0).Seconds()}
	st.cpu = cpuSeconds() - cpu0
	st.alloc = heapAllocs() - alloc0
	st.gcCPU = readFloat64("/cpu/classes/gc/total:cpu-seconds") - gcCPU0
	st.gcCycles = readUint64("/gc/cycles/total:gc-cycles") - gc0
	return out, st, err
}

// digests are the pinned identity of a job's output.
type digests struct {
	Dataset string `json:"dataset"` // sha256 of the dataset's JSON
	Report  string `json:"report"`  // sha256 of report.All; "" when the job renders none
}

func sums(out *output) (digests, error) {
	d, err := digest(out.ds)
	if err != nil {
		return digests{}, err
	}
	r := ""
	if out.report != "" {
		sum := sha256.Sum256([]byte(out.report))
		r = hex.EncodeToString(sum[:])
	}
	return digests{d, r}, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readFloat64(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// cpuModel reads the processor model from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
