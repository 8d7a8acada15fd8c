package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/fpm"
	"repro/internal/jobs"
	"repro/internal/registry"
)

func mustCorpus(t *testing.T, seed int64) *corpus {
	t.Helper()
	c, err := newCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := mustCorpus(t, 5), mustCorpus(t, 5)
	if !bytes.Equal(a.base(), b.base()) || !bytes.Equal(a.variant(5, 9), b.variant(5, 9)) || !bytes.Equal(a.padded(3), b.padded(3)) {
		t.Fatal("same seed gave different CSV bytes")
	}
	d1, err := driftBatches(5, 7, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := driftBatches(5, 7, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed gave different event batches")
	}
	o, err := newOracle(a.base())
	if err != nil {
		t.Fatal(err)
	}
	w1, err := walBytes(5, 3, o.res, analyzeMetrics)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := walBytes(5, 3, o.res, analyzeMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1, w2) {
		t.Fatal("same seed gave different WAL bytes")
	}
}

func TestDifferentInputsDifferentHashes(t *testing.T) {
	a, b := mustCorpus(t, 5), mustCorpus(t, 6)
	seen := map[registry.Hash]string{}
	for name, body := range map[string][]byte{
		"seed 5 base": a.base(), "seed 6 base": b.base(),
		"seed 5 variant 0": a.variant(5, 0), "seed 5 variant 1": a.variant(5, 1),
		"seed 6 variant 0": b.variant(6, 0), "seed 5 padded 1": a.padded(1),
	} {
		h := registry.HashBytes(body)
		if other, dup := seen[h]; dup {
			t.Fatalf("%s and %s share content hash %s", name, other, h)
		}
		seen[h] = name
	}
	d1, err := driftBatches(5, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := driftBatches(6, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(d1[0], d2[0]) {
		t.Fatal("different seeds gave the same events")
	}
}

// Row-permuted and header-padded copies must give the oracle's answer.
func TestCopiesShareTheOracleAnswer(t *testing.T) {
	c := mustCorpus(t, 8)
	base, err := newOracle(c.base())
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.analyze(analyzeMetrics, analyzeTopK)
	if err != nil {
		t.Fatal(err)
	}
	wantX, err := base.explore("FPR", sessionTopK, maxPatterns)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"variant": c.variant(8, 4), "padded": c.padded(7)} {
		o, err := newOracle(body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.analyze(analyzeMetrics, analyzeTopK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: analysis answer differs from the base corpus", name)
		}
		gotX, err := o.explore("FPR", sessionTopK, maxPatterns)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotX, wantX) {
			t.Errorf("%s: anytime top-k differs from the base corpus", name)
		}
	}
}

// A WAL written through the counting FS replays to the same jobs as one
// written without it, and the counts match what was written.
func TestCountingFSPassesThrough(t *testing.T) {
	recs := func(id string) []jobs.Record {
		spec := &jobs.Spec{Dataset: "d", TruthCol: "truth", PredCol: "pred", Support: 0.1}
		return []jobs.Record{
			{Type: jobs.RecSubmitted, Job: id, Spec: spec},
			{Type: jobs.RecRunning, Job: id},
			{Type: jobs.RecSnapshot, Job: id, Snapshot: &jobs.Snapshot{Seq: 1}},
			{Type: jobs.RecDone, Job: id, Spec: spec},
		}
	}
	write := func(dir string, fsys faultfs.FS) {
		st, err := jobs.OpenStoreFS(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			for _, r := range recs(id) {
				r.Time = time.Unix(1, 0)
				if err := st.Append(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plainDir, countedDir := t.TempDir(), t.TempDir()
	write(plainDir, nil)
	cfs := newCountingFS(faultfs.OS())
	write(countedDir, cfs)
	// Submitted and done records are fsynced (4), and Close syncs once.
	if got := cfs.counts(); got.appends != 8 || got.fsyncs != 5 || got.snapshots != 2 || got.bytes == 0 {
		t.Fatalf("counts = %+v, want 8 appends, 5 fsyncs, 2 snapshots", got)
	}
	replay := func(dir string) []jobs.Record {
		st, err := jobs.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.Replay()
	}
	if a, b := replay(plainDir), replay(countedDir); !reflect.DeepEqual(a, b) {
		t.Fatalf("replays differ:\n%+v\n%+v", a, b)
	}
}

func TestAnalyzeTimerAndTimingMinerPassThrough(t *testing.T) {
	body := mustCorpus(t, 9).base()
	d, err := parseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{TruthCol: "truth", PredCol: "pred", Support: support, Metrics: analyzeMetrics}
	want, err := jobs.RunAnalysis(context.Background(), d, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var timer analyzeTimer
	got, err := timer.analyze(context.Background(), d, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if timer.calls.Load() != 1 || timer.nanos.Load() <= 0 {
		t.Fatalf("timer recorded %d calls, %d ns", timer.calls.Load(), timer.nanos.Load())
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatal("analysis through the timer differs from RunAnalysis")
	}
	tm := &timingMiner{inner: fpm.Parallel{}}
	viaMiner, err := core.Explore(want.DB, support, core.Options{Miner: tm})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaMiner.Patterns, want.Patterns) || tm.patterns != want.NumPatterns() || tm.Name() != (fpm.Parallel{}).Name() {
		t.Fatalf("timing miner: %d patterns (want %d), name %q", tm.patterns, want.NumPatterns(), tm.Name())
	}
}

// The flushing writer lets the SSE handler run to the terminal event.
func TestMemWriterStreamsJobEvents(t *testing.T) {
	e, err := newEnv(false, "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	c := &client{h: e.h}
	w := c.call("POST", analyzeTarget("/jobs", analyzeTopK, 0), mustCorpus(t, 2).base(), false)
	if err := expect(w, "submit", 202); err != nil {
		t.Fatal(err)
	}
	id, err := jsonField(w.body.Bytes(), "id")
	if err != nil {
		t.Fatal(err)
	}
	w = c.call("GET", "/jobs/"+id+"/events", nil, true)
	if err := expect(w, "events", 200); err != nil {
		t.Fatal(err)
	}
	if w.flushes == 0 || w.header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("flushes=%d content-type=%q", w.flushes, w.header.Get("Content-Type"))
	}
	if err := terminalDone(w.body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// Every workload's ops pass their oracle on a fresh set-up.
func TestWorkloadsPassTheirOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four servers")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.build(4, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if _, err := setup(r, true); err != nil {
				t.Fatal(err)
			}
			l, err := runOps(r, newTracer(), 0, 0, 3, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 {
				t.Fatal(l.firstErr)
			}
		})
	}
}

// BENCHMARK.json lists workloads the program has, in the program's order,
// and exactly the metrics it reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, bw := range b.Workloads {
		for next < len(workloads) && workloads[next].name != bw.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("BENCHMARK.json workload %s is not a program workload, or is out of order", bw.Name)
		}
		next++
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: %s %s vs %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	want := map[string]string{"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "throughput_per_s": "1/s", "cpu_ms_per_op": "ms", "live_heap_mb": "MiB"}
	if len(b.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(want))
	}
	for _, m := range b.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s unit %s, want %s", m.Name, m.Unit, want[m.Name])
		}
	}
}
