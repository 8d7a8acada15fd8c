package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/fpm"
	"repro/internal/jobs"
)

// The adapters below sit on the program's own seams (faultfs.FS,
// jobs.Config.Analyze, fpm.Miner, http.ResponseWriter). Each passes
// behaviour through unchanged and only counts or times it.

// memWriter is an in-memory http.ResponseWriter that also implements
// http.Flusher, so streaming handlers such as GET /jobs/{id}/events run
// exactly as they do on a real connection. The handler returns once the
// stream ends, and the frames stay in the body.
type memWriter struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	flushes int
}

func newMemWriter() *memWriter { return &memWriter{header: make(http.Header)} }

func (w *memWriter) Header() http.Header { return w.header }

func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *memWriter) Flush() {
	w.WriteHeader(http.StatusOK)
	w.flushes++
}

func (w *memWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// sseEvent is one Server-Sent Event frame.
type sseEvent struct {
	name string
	data []byte
}

// parseSSE splits an event-stream body into its frames.
func parseSSE(body []byte) []sseEvent {
	var out []sseEvent
	for _, frame := range bytes.Split(body, []byte("\n\n")) {
		var ev sseEvent
		for _, line := range bytes.Split(frame, []byte("\n")) {
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				ev.name = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				ev.data = line[len("data: "):]
			}
		}
		if ev.name != "" {
			out = append(out, ev)
		}
	}
	return out
}

// countingFS wraps a faultfs.FS and counts what the job store does to
// its write-ahead log: appends (one Write per record), bytes, snapshot
// records, and fsyncs with their total duration. All counters are safe
// to read while the store writes.
type countingFS struct {
	faultfs.FS
	appends    atomic.Int64
	bytes      atomic.Int64
	snapshots  atomic.Int64
	fsyncs     atomic.Int64
	fsyncNanos atomic.Int64
}

func newCountingFS(inner faultfs.FS) *countingFS { return &countingFS{FS: inner} }

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != jobs.WALName {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.appends.Add(1)
	f.fs.bytes.Add(int64(n))
	var rec struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(bytes.TrimSpace(p), &rec) == nil && rec.Type == jobs.RecSnapshot {
		f.fs.snapshots.Add(1)
	}
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.fsyncNanos.Add(int64(time.Since(t0)))
	f.fs.fsyncs.Add(1)
	return err
}

// walCounts is a snapshot of a countingFS.
type walCounts struct {
	appends, bytes, snapshots, fsyncs int64
	fsyncTime                         time.Duration
}

func (c *countingFS) counts() walCounts {
	return walCounts{
		appends: c.appends.Load(), bytes: c.bytes.Load(), snapshots: c.snapshots.Load(),
		fsyncs: c.fsyncs.Load(), fsyncTime: time.Duration(c.fsyncNanos.Load()),
	}
}

// analyzeTimer is a jobs.Config.Analyze implementation that runs
// jobs.RunAnalysis and records the number of calls and their total
// time. It may be called from several workers at once.
type analyzeTimer struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (a *analyzeTimer) analyze(ctx context.Context, data *dataset.Dataset, spec jobs.Spec, tr *jobs.Tracker) (*core.Result, error) {
	t0 := time.Now()
	res, err := jobs.RunAnalysis(ctx, data, spec, tr)
	a.nanos.Add(int64(time.Since(t0)))
	a.calls.Add(1)
	return res, err
}

// timingMiner is an fpm.Miner that delegates to inner and records the
// time spent mining and the number of patterns produced.
type timingMiner struct {
	inner    fpm.Miner
	elapsed  time.Duration
	patterns int
}

func (m *timingMiner) Name() string { return m.inner.Name() }

func (m *timingMiner) Mine(db *fpm.TxDB, minCount int64) ([]fpm.FrequentPattern, error) {
	return m.MineContext(context.Background(), db, minCount)
}

func (m *timingMiner) MineContext(ctx context.Context, db *fpm.TxDB, minCount int64) ([]fpm.FrequentPattern, error) {
	t0 := time.Now()
	ps, err := fpm.MineWith(ctx, m.inner, db, minCount)
	m.elapsed += time.Since(t0)
	m.patterns += len(ps)
	return ps, err
}

// jsonField pulls one top-level string field out of a JSON object.
func jsonField(body []byte, field string) (string, error) {
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	s, _ := obj[field].(string)
	if s == "" {
		return "", fmt.Errorf("response has no %q field", field)
	}
	return s, nil
}
