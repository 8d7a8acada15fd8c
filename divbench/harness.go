package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
	"repro/internal/server"
)

// The server is configured as cmd/divexplorer-server ships it, except
// for a smaller dataset-registry budget, so that set-up can drive the
// registry to its eviction steady state in a bounded time.
const (
	registryBudget  = 16 << 20 // -dataset-cache-bytes; holds ~85 COMPAS uploads
	resultCache     = 128      // -result-cache
	exploreCache    = 64       // -explore-cache
	exploreSessions = 16       // -explore-sessions
	sigCache        = 64       // -sig-cache
	snapshotEvery   = 2 * time.Second
)

// env is one fully built server: registry, engine (optionally durable),
// monitor manager and HTTP handler.
type env struct {
	srv   *server.Server
	h     http.Handler
	reg   *registry.Registry
	eng   *jobs.Engine
	timer *analyzeTimer // nil unless traced
	fs    *countingFS   // nil unless traced and durable
	dir   string        // WAL directory, "" when not durable

	recoverTime time.Duration
}

// newEnv builds a server. With storeDir set, the engine recovers the WAL
// found there and keeps it attached for write-through.
func newEnv(traced bool, storeDir string) (*env, error) {
	e := &env{reg: registry.NewSharded(registryBudget, registry.DefaultShards), dir: storeDir}
	cfg := jobs.Config{
		Registry:                 e.reg,
		QueueDepth:               64,
		ResultCacheEntries:       resultCache,
		DefaultTimeout:           5 * time.Minute,
		SnapshotEvery:            snapshotEvery,
		ExploreCacheEntries:      exploreCache,
		ExploreSessions:          exploreSessions,
		SignificanceCacheEntries: sigCache,
		MaxPermutations:          100000,
	}
	if traced {
		e.timer = &analyzeTimer{}
		cfg.Analyze = e.timer.analyze
	}
	eng, err := jobs.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	e.eng = eng
	if storeDir != "" {
		var fsys *countingFS
		if traced {
			e.fs = newCountingFS(faultfs.OS())
			fsys = e.fs
		}
		t0 := time.Now()
		if fsys != nil {
			_, err = eng.RecoverFS(storeDir, fsys)
		} else {
			_, err = eng.Recover(storeDir)
		}
		e.recoverTime = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("recovering job store: %w", err)
		}
	}
	mons := monitor.NewManager(monitor.Config{QueueDepth: 64, MaxMonitors: 32, Store: eng.Store()})
	if _, err := mons.Recover(); err != nil {
		return nil, fmt.Errorf("recovering monitors: %w", err)
	}
	srv, err := server.New(server.Options{Registry: e.reg, Engine: eng, Monitors: mons})
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	e.srv = srv
	e.h = srv.Handler()
	return e, nil
}

// close drains the server and removes its WAL directory.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Close(ctx)
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch accumulates the wall and CPU time of the spans an op spends
// waiting on the program: requests and waits for background work. Time
// the client spends generating inputs or checking answers is excluded.
type stopwatch struct {
	wall, cpu time.Duration
}

func (s *stopwatch) time(f func()) time.Duration {
	c0 := cpuTime()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	s.wall += d
	s.cpu += cpuTime() - c0
	return d
}

// client issues in-memory requests straight into the server's handler:
// one closed-loop caller, one request outstanding, no sockets.
type client struct {
	h       http.Handler
	sw      stopwatch
	tr      *tracer // nil when untraced
	retries int     // requests repeated after a 429
}

// call serves one request. Streaming (SSE) requests are timed like any
// other but kept out of the server.request span, since their duration is
// the wait for a job, not the handler's work.
func (c *client) call(method, target string, body []byte, streaming bool) *memWriter {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := newMemWriter()
	d := c.sw.time(func() { c.h.ServeHTTP(w, req) })
	if !streaming {
		c.tr.add("server.request_ms", ms(d))
		c.tr.add("server.response_kb", float64(w.body.Len())/1024)
		c.tr.count("server.requests", 1)
	}
	return w
}

// expect checks a response status.
func expect(w *memWriter, what string, code int) error {
	if w.status() != code {
		return fmt.Errorf("%s: HTTP %d, want %d: %s", what, w.status(), code, bytes.TrimSpace(w.body.Bytes()))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracer accumulates per-layer samples of a traced run: span times,
// counts and ratios, keyed by metric name. A nil tracer records nothing.
type tracer struct {
	sum map[string]float64
	n   map[string]int64
}

func newTracer() *tracer { return &tracer{sum: make(map[string]float64), n: make(map[string]int64)} }

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.sum[name] += v
	t.n[name]++
}

func (t *tracer) count(name string, v int64) { t.add(name, float64(v)) }

// span times f under name (in milliseconds) and returns its duration.
func (t *tracer) span(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.add(name, ms(d))
	return d
}

// childSpan is span for a call that one of the op's requests makes (or
// that a probe re-runs on its behalf); its time is charged to
// server.children_ms, so server.self_ms = requests - children.
func (t *tracer) childSpan(name string, f func()) time.Duration {
	d := t.span(name, f)
	t.add("server.children_ms", ms(d))
	return d
}

func (t *tracer) total(name string) float64 { return t.sum[name] }

// mean is the mean sample of name, 0 without samples.
func (t *tracer) mean(name string) float64 {
	if t.n[name] == 0 {
		return 0
	}
	return t.sum[name] / float64(t.n[name])
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	// lint:ignore floatcmp an exact zero denominator means "no samples"; any other value divides
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// liveHeapMB forces two collections (the second clears sync.Pool victim
// caches) and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// tempDir makes a fresh directory under the benchmark's work dir.
func tempDir(workdir, prefix string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", fmt.Errorf("creating work dir: %w", err)
	}
	dir, err := os.MkdirTemp(workdir, prefix)
	if err != nil {
		return "", fmt.Errorf("creating temporary dir: %w", err)
	}
	return filepath.Clean(dir), nil
}
