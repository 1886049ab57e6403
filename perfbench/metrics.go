package main

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"pairs_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

var analysisPassNames = []string{
	"rq1", "networks", "contagion", "switching", "daily", "sources",
	"overlap", "hashtags", "toxicity", "collection", "activity", "retention",
}

// perLayer lists the metrics a traced run reports, on every workload.
func perLayer() []metric {
	ms := []metric{
		{"world.generate_s", "s"}, {"world.generate_alloc_mb", "MB"},
		{"birdsite.new_s", "s"}, {"birdsite.new_alloc_mb", "MB"},
		{"indexsvc.new_s", "s"}, {"fediverse.new_s", "s"},
	}
	for _, p := range crawlPhases {
		ms = append(ms, metric{"crawler." + p.name + "_s", "s"},
			metric{"crawler." + p.name + ".requests", "count"},
			metric{"crawler." + p.name + ".inflight", "exchanges"})
	}
	for _, h := range httpHosts {
		ms = append(ms, metric{"http." + h + ".requests", "count"},
			metric{"http." + h + ".busy_s", "s"},
			metric{"http." + h + ".failed", "count"})
	}
	ms = append(ms,
		metric{"http.useful_frac", "ratio"},
		metric{"failed_frac", "ratio"},
		metric{"httpkit.retries", "count"},
		metric{"httpkit.short_circuits", "count"},
		metric{"httpkit.rate_limited", "count"},
		metric{"crawler.gap_units", "count"},
		metric{"store.load_s", "s"}, metric{"store.load_alloc_mb", "MB"},
		metric{"store.anonymize_s", "s"}, metric{"store.save_s", "s"}, metric{"store.bytes_mb", "MB"},
	)
	for _, p := range analysisPassNames {
		ms = append(ms, metric{"analysis." + p + "_s", "s"})
	}
	ms = append(ms,
		metric{"analysis.overlap_alloc_mb", "MB"},
		metric{"textsim.cache_len", "count"},
		metric{"report.render_s", "s"},
		metric{"runtime.gc_cpu_s", "s"},
		metric{"runtime.gc_cycles", "count"},
		metric{"trace.overhead_s", "s"},
	)
	return ms
}

// layerValues turns one job's (or one set-up's) spans and crawl
// accounting into per-layer values. Only layers that ran get a key.
func layerValues(tr *tracer, label string, run *crawlRun) map[string]float64 {
	v := map[string]float64{}
	for name, t := range tr.layerTotals(label) {
		v[name+"_s"] = t[0]
		v[name+"_alloc_mb"] = t[2]
	}
	if run == nil {
		return v
	}
	d := run.doer
	for p, ph := range crawlPhases {
		var req, busy int64
		for h := range httpHosts {
			req += d.cells[p][h].requests.Load()
			busy += d.cells[p][h].busyNS.Load()
		}
		v["crawler."+ph.name+".requests"] = float64(req)
		v["crawler."+ph.name+".inflight"] = float64(busy) / 1e9 / run.phases[p].wall()
	}
	for h, host := range httpHosts {
		var req, failed, busy int64
		for p := range crawlPhases {
			req += d.cells[p][h].requests.Load()
			failed += d.cells[p][h].failed.Load()
			busy += d.cells[p][h].busyNS.Load()
		}
		v["http."+host+".requests"] = float64(req)
		v["http."+host+".failed"] = float64(failed)
		v["http."+host+".busy_s"] = float64(busy) / 1e9
	}
	req, failed := d.totals()
	v["http.useful_frac"] = float64(req-failed) / float64(req)
	st := run.report.HTTPStats
	v["httpkit.retries"] = float64(st.Retries)
	v["httpkit.short_circuits"] = float64(st.ShortCircuits)
	v["httpkit.rate_limited"] = float64(st.RateLimited)
	v["crawler.gap_units"] = float64(run.report.GapCount())
	return v
}

// pickLayers reports every per-layer metric: the median over traced
// jobs where the layer ran in the jobs, else the set-up's value where it
// ran in set-up, else 0 (the layer never ran in this workload).
func pickLayers(jobs []map[string]float64, setup map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer() {
		var xs []float64
		for _, j := range jobs {
			if x, ok := j[m.name]; ok {
				xs = append(xs, x)
			}
		}
		if len(xs) > 0 {
			out[m.name] = median(xs)
		} else {
			out[m.name] = setup[m.name]
		}
	}
	return out
}
