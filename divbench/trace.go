package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/registry"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	// exact marks a count that must repeat exactly across two traced
	// passes with one seed.
	exact bool
}

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"server.request_ms", "ms", false},
	{"server.self_ms", "ms", false},
	{"server.response_kb", "KiB", false},
	{"registry.register_ms", "ms", false},
	{"registry.hash_ms", "ms", false},
	{"registry.hit_ratio", "ratio", true},
	{"registry.evictions_per_op", "count", true},
	{"dataset.parse_ms", "ms", false},
	{"fpm.txdb_ms", "ms", false},
	{"fpm.mine_ms", "ms", false},
	{"fpm.patterns_per_op", "count", true},
	{"core.stats_ms", "ms", false},
	{"core.global_divergence_ms", "ms", false},
	{"core.corrective_ms", "ms", false},
	{"core.topk_ms", "ms", false},
	{"core.anytime_topk_ms", "ms", false},
	{"jobs.analyze_ms", "ms", false},
	{"jobs.queue_wait_ms", "ms", false},
	{"jobs.run_ms", "ms", false},
	{"jobs.snapshots_per_job", "count", true},
	{"jobs.wal_appends_per_job", "count", true},
	{"jobs.wal_fsyncs_per_job", "count", true},
	{"jobs.wal_bytes_per_job", "B", false},
	{"jobs.wal_fsync_ms", "ms", false},
	{"jobs.recover_ms", "ms", false},
	{"jobs.result_cache_hit_ratio", "ratio", true},
	{"jobs.explore_cache_hit_ratio", "ratio", true},
	{"jobs.significance_cache_hit_ratio", "ratio", true},
	{"lattice.expand_cold_ms", "ms", false},
	{"lattice.expand_warm_ms", "ms", false},
	{"lattice.cache_hit_ratio", "ratio", true},
	{"permtest.significance_ms", "ms", false},
	{"permtest.pass_us", "us", false},
	{"monitor.ingest_ms", "ms", false},
	{"monitor.fold_wait_ms", "ms", false},
	{"monitor.backpressure_ratio", "ratio", true},
	{"monitor.events_per_s", "1/s", false},
	{"runtime.mallocs_per_op", "count", false},
	{"runtime.alloc_kb_per_op", "KiB", false},
	{"runtime.gc_cycles_per_op", "count", false},
	{"bench.trace_overhead_ms", "ms", false},
}

// counters is a snapshot of the program's own counters around a pass.
type counters struct {
	reg       registry.Stats
	eng       jobs.Stats
	wal       walCounts
	analyzeN  int64
	analyzeNs int64
}

func snapshot(e *env) counters {
	c := counters{reg: e.reg.Stats(), eng: e.eng.Stats()}
	if e.fs != nil {
		c.wal = e.fs.counts()
	}
	if e.timer != nil {
		c.analyzeN, c.analyzeNs = e.timer.calls.Load(), e.timer.nanos.Load()
	}
	return c
}

func hitRatio(h0, m0, h1, m1 int64) float64 {
	return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
}

// traced runs the traced measurement: one untraced pass and two traced
// passes of w.traceOps ops, each from a fresh set-up. The per-layer
// metrics come from the first traced pass; the second must reproduce
// every exact count, or the run fails.
func traced(w *workload, r runner) (*report, error) {
	if _, err := setup(r, false); err != nil {
		return nil, err
	}
	plain, err := runOps(r, nil, 0, 0, w.traceOps, w.window, 0)
	if err != nil {
		return nil, err
	}
	summarize(w.name+" (untraced)", plain)
	var passes [2]map[string]float64
	attempted, failed := plain.attempted, plain.failed
	for p := range passes {
		if _, err := setup(r, true); err != nil {
			return nil, err
		}
		tr := newTracer()
		before := snapshot(r.current())
		l, err := runOps(r, tr, 0, 0, w.traceOps, w.window, 0)
		if err != nil {
			return nil, err
		}
		summarize(fmt.Sprintf("%s (traced pass %d)", w.name, p+1), l)
		passes[p] = layerValues(tr, before, snapshot(r.current()), r.current(), l, plain, w.name == "durable-stream")
		attempted += l.attempted
		failed += l.failed
		if l.failed > 0 {
			break
		}
	}
	if failed == 0 {
		var diffs []string
		for _, m := range layerMetrics {
			// lint:ignore floatcmp exact counts must repeat bit for bit across passes with one seed
			if m.exact && passes[0][m.name] != passes[1][m.name] {
				diffs = append(diffs, fmt.Sprintf("%s: %v then %v", m.name, passes[0][m.name], passes[1][m.name]))
			}
		}
		if len(diffs) > 0 {
			return nil, fmt.Errorf("exact counts differ between two traced passes with one seed: %s", strings.Join(diffs, "; "))
		}
	}
	if notes := absent[w.name]; notes != "" {
		fmt.Println("# zero by construction on " + w.name + ": " + notes)
	}
	rep := &report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	for _, m := range layerMetrics {
		rep.Metrics[m.name] = metric{passes[0][m.name], m.unit}
	}
	return rep, nil
}

// layerValues derives every per-layer metric of one traced pass.
func layerValues(tr *tracer, b, a counters, e *env, l, plain *loop, durable bool) map[string]float64 {
	ops := float64(l.attempted)
	perOp := func(name string) float64 { return ratio(tr.total(name), ops) }
	v := map[string]float64{
		"server.request_ms":         perOp("server.request_ms"),
		"server.self_ms":            perOp("server.request_ms") - perOp("server.children_ms"),
		"server.response_kb":        tr.mean("server.response_kb"),
		"registry.register_ms":      perOp("registry.register_ms"),
		"registry.hash_ms":          perOp("registry.hash_ms"),
		"registry.hit_ratio":        hitRatio(b.reg.Hits, b.reg.Misses, a.reg.Hits, a.reg.Misses),
		"registry.evictions_per_op": ratio(float64(a.reg.Evictions-b.reg.Evictions), ops),
		"dataset.parse_ms":          perOp("dataset.parse_ms"),
		"fpm.txdb_ms":               perOp("fpm.txdb_ms"),
		"fpm.mine_ms":               perOp("fpm.mine_ms"),
		"fpm.patterns_per_op":       perOp("fpm.patterns"),
		"core.stats_ms":             perOp("core.stats_ms"),
		"core.global_divergence_ms": perOp("core.global_divergence_ms"),
		"core.corrective_ms":        perOp("core.corrective_ms"),
		"core.topk_ms":              perOp("core.topk_ms"),
		"core.anytime_topk_ms":      perOp("core.anytime_topk_ms"),
		"jobs.analyze_ms":           ratio(ms(time.Duration(a.analyzeNs-b.analyzeNs)), float64(a.analyzeN-b.analyzeN)),
		"jobs.queue_wait_ms":        tr.mean("jobs.queue_wait_ms"),
		"jobs.run_ms":               tr.mean("jobs.run_ms"),
		"jobs.result_cache_hit_ratio": hitRatio(b.eng.ResultCache.Hits, b.eng.ResultCache.Misses,
			a.eng.ResultCache.Hits, a.eng.ResultCache.Misses),
		"jobs.explore_cache_hit_ratio": hitRatio(b.eng.Explore.Cache.Hits, b.eng.Explore.Cache.Misses,
			a.eng.Explore.Cache.Hits, a.eng.Explore.Cache.Misses),
		"jobs.significance_cache_hit_ratio": hitRatio(b.eng.Significance.Cache.Hits, b.eng.Significance.Cache.Misses,
			a.eng.Significance.Cache.Hits, a.eng.Significance.Cache.Misses),
		"lattice.expand_cold_ms":     tr.mean("lattice.expand_cold_ms"),
		"lattice.expand_warm_ms":     tr.mean("lattice.expand_warm_ms"),
		"lattice.cache_hit_ratio":    ratio(tr.total("lattice.hits"), tr.total("lattice.hits")+tr.total("lattice.misses")),
		"permtest.significance_ms":   perOp("permtest.significance_ms"),
		"permtest.pass_us":           tr.mean("permtest.pass_us"),
		"monitor.ingest_ms":          perOp("monitor.ingest_ms"),
		"monitor.fold_wait_ms":       perOp("monitor.fold_wait_ms"),
		"monitor.backpressure_ratio": ratio(tr.total("monitor.backpressure"), tr.total("monitor.batches")),
		"monitor.events_per_s": ratio(tr.total("monitor.events"),
			(tr.total("monitor.ingest_ms")+tr.total("monitor.fold_wait_ms"))/1000),
		"runtime.mallocs_per_op":   ratio(float64(plain.mallocs), float64(plain.attempted)),
		"runtime.alloc_kb_per_op":  ratio(float64(plain.allocBytes)/1024, float64(plain.attempted)),
		"runtime.gc_cycles_per_op": ratio(float64(plain.gcs), float64(plain.attempted)),
		"bench.trace_overhead_ms":  median(l.lat) - median(plain.lat),
	}
	if durable {
		jobsN := ops
		v["jobs.snapshots_per_job"] = ratio(float64(a.wal.snapshots-b.wal.snapshots), jobsN)
		v["jobs.wal_appends_per_job"] = ratio(float64(a.wal.appends-b.wal.appends), jobsN)
		v["jobs.wal_fsyncs_per_job"] = ratio(float64(a.wal.fsyncs-b.wal.fsyncs), jobsN)
		v["jobs.wal_bytes_per_job"] = ratio(float64(a.wal.bytes-b.wal.bytes), jobsN)
		v["jobs.wal_fsync_ms"] = ratio(ms(a.wal.fsyncTime-b.wal.fsyncTime), float64(a.wal.fsyncs-b.wal.fsyncs))
		v["jobs.recover_ms"] = ms(e.recoverTime)
	}
	return v
}

// absent names, per workload, the per-layer metrics that are zero
// because the workload never reaches that layer or call.
var absent = map[string]string{
	"analyze-cold": "core.anytime_topk_ms, jobs.queue_wait_ms, jobs.run_ms, jobs.*_per_job, jobs.wal_fsync_ms, jobs.recover_ms, " +
		"jobs.explore_cache_hit_ratio, jobs.significance_cache_hit_ratio, lattice.*, permtest.*, monitor.* " +
		"(no jobs, WAL, exploration, significance or monitor on this workload)",
	"analyze-warm": "dataset.parse_ms, fpm.*, core.stats_ms, core.anytime_topk_ms, registry.register_ms, jobs.analyze_ms, " +
		"jobs.queue_wait_ms, jobs.run_ms, jobs.*_per_job, jobs.wal_fsync_ms, jobs.recover_ms, jobs.explore_cache_hit_ratio, " +
		"jobs.significance_cache_hit_ratio, lattice.*, permtest.*, monitor.* (every request hits both caches: nothing is parsed or mined)",
	"explore-session": "registry.register_ms, registry.hash_ms, registry.evictions_per_op, dataset.parse_ms, fpm.mine_ms, core.stats_ms, " +
		"core.global_divergence_ms, core.corrective_ms, core.topk_ms, jobs.analyze_ms, jobs.queue_wait_ms, jobs.run_ms, " +
		"jobs.*_per_job, jobs.wal_fsync_ms, jobs.recover_ms, jobs.explore_cache_hit_ratio (budget-truncated outcomes are never cached), " +
		"monitor.* (datasets are registered and mined in set-up; no jobs, WAL or monitor)",
	"durable-stream": "core.anytime_topk_ms, jobs.explore_cache_hit_ratio, jobs.significance_cache_hit_ratio, lattice.*, permtest.* " +
		"(no exploration or significance on this workload)",
}
