// Package jobs is the asynchronous job engine: a bounded worker pool
// runs DivExplorer analyses (via the parallel FP-growth path), anytime
// explorations and significance queries off the request goroutine, with
// a full job lifecycle
//
//	queued → running → done | failed | canceled
//
// per-job context cancellation and deadline, a bounded queue with
// explicit backpressure (ErrQueueFull instead of unbounded growth), an
// LRU outcome cache per job kind shared by the synchronous and
// asynchronous paths, and graceful drain on shutdown. Every kind goes
// through one seam (the workload interface): one submit, run, cache and
// WAL path. Datasets are referenced by content hash through
// internal/registry, so identical uploads mine at most once and repeat
// requests are served from the cache.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// Typed errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity; the server maps it to HTTP 429. Callers should retry
	// later rather than block.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown is returned by Submit after Shutdown started.
	ErrShuttingDown = errors.New("jobs: engine shutting down")
	// ErrUnknownJob is returned for job ids the engine has never seen.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrBadInput wraps analysis failures caused by the request itself
	// (unknown columns, non-Boolean labels, bad support) as opposed to
	// internal faults; the server maps it to HTTP 400.
	ErrBadInput = errors.New("jobs: bad input")
	// ErrInterrupted marks a job that was queued or running when the
	// previous process died; Recover re-marks such jobs failed rather
	// than letting them vanish silently.
	ErrInterrupted = errors.New("jobs: interrupted by engine restart")
	// ErrNoResult is returned by Result for done jobs recovered from the
	// store: the full in-memory result is gone. Engine.Rehydrate re-mines
	// it when the job's done record carries a spec (schema v2) and the
	// dataset is still resident; otherwise only the durable summary
	// (Job.Summary) survives a restart.
	ErrNoResult = errors.New("jobs: full result not in memory (job recovered from store); use the summary")
	// ErrDatasetGone marks an analysis or rehydration whose dataset is no
	// longer resident in the registry (never registered, evicted, or lost
	// to a restart). The server maps it to the degraded-summary fallback
	// on the result endpoint.
	ErrDatasetGone = errors.New("jobs: dataset not resident in the registry")
)

// State is a job lifecycle state.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled"}

// String returns the wire name of the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "unknown"
	}
	return stateNames[s]
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec describes one analysis: which dataset (by content hash), which
// label columns, and the exploration parameters. Metrics, TopK, Epsilon
// and Alpha shape the rendered report; the mined result depends only on
// the dataset, the label columns and the support threshold.
type Spec struct {
	Dataset  registry.Hash
	TruthCol string
	PredCol  string
	Support  float64
	Metrics  []string // metric names, e.g. "FPR"; validated by the caller
	Epsilon  float64
	TopK     int
	Alpha    float64
	// Timeout overrides the engine's default per-job deadline when > 0.
	Timeout time.Duration
	// Tenant is the admission identity the submission arrived under. It
	// shapes queueing and quotas only — never the mined result — so it is
	// excluded from CacheKey: two tenants analyzing the same dataset share
	// one cache entry.
	Tenant string `json:",omitempty"`
}

// CacheKey identifies the cached mining result for a spec. It covers
// every input the mined lattice depends on — dataset hash, label
// columns, support — plus the metric list and epsilon so a cached entry
// always reproduces the full request byte-for-byte. Render-only knobs
// (TopK, Alpha, Timeout) and the admission identity (Tenant) are
// deliberately excluded.
func (s Spec) CacheKey() string {
	return joinKey(s.Dataset, s.TruthCol, s.PredCol, s.Support, strings.Join(s.Metrics, ","), s.Epsilon)
}

// joinKey joins cache-key parts with a unit separator. Floats print in
// their shortest exact form, so distinct values never share a key.
func joinKey(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		fmt.Fprint(&b, p)
	}
	return b.String()
}

// Kind names a job's workload on the wire, in Status and in the WAL.
type Kind string

// The job kinds.
const (
	KindAnalysis     Kind = "analysis"
	KindExplore      Kind = "explore"
	KindSignificance Kind = "significance"
)

// workload is one job kind: the input a job carries and how the engine
// validates, caches and runs it. *Spec (analysis), *ExploreSpec and
// *SignificanceSpec implement it; the submit, run, cache and WAL paths
// see only this interface.
type workload interface {
	kind() Kind
	// CacheKey names the outcome in the kind's cache.
	CacheKey() string
	// validate normalizes the input in place, wrapping ErrBadInput on
	// rejection.
	validate(e *Engine) error
	// run computes the outcome (tr is nil on synchronous calls) and
	// reports whether it may answer later asks of the same cache key.
	run(ctx context.Context, e *Engine, tr *Tracker) (out any, cache bool, err error)
	// common is the analysis-shaped view of the input that status and
	// routing read: dataset, label columns, support, timeout and tenant.
	common() Spec
}

// kinds lists the job kinds whose WAL records carry their input and
// outcome as JSON (analysis keeps its v1/v2 layout): a fresh input and
// a fresh outcome for replay to decode into.
var kinds = map[Kind]func() (workload, any){
	KindExplore:      func() (workload, any) { return new(ExploreSpec), new(ExploreOutcome) },
	KindSignificance: func() (workload, any) { return new(SignificanceSpec), new(SignificanceOutcome) },
}

// Job is one submitted job of any kind. All exported access goes
// through Snapshot and the outcome accessors; the engine owns the
// mutable state.
type Job struct {
	id string
	// work is the job's input; set before the job is published and never
	// changed afterwards, so it is read without the lock.
	work workload

	mu        sync.Mutex
	state     State
	err       error
	out       any // the kind's outcome once done (nil for a recovered analysis until Rehydrate)
	summary   *ResultSummary
	recovered bool
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // non-nil only while running

	// recomputable, set during recovery from a v2+ analysis done record,
	// marks a result Rehydrate can re-mine; rehydrateMu single-flights
	// that re-mine so concurrent result fetches do not each run it.
	// rehydrateCancel, non-nil only while that re-mine is in flight,
	// aborts it — Cancel on a recovered done job must stop the re-mine
	// instead of letting it complete and repopulate caches.
	recomputable    bool
	rehydrateMu     sync.Mutex
	rehydrateCancel func()

	partial       atomic.Pointer[Snapshot]
	progressDone  atomic.Int64
	progressTotal atomic.Int64

	canceledByUser atomic.Bool
}

// ID returns the job's opaque identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the job's workload kind.
func (j *Job) Kind() Kind { return j.work.kind() }

// Spec returns the submitted analysis spec; for other kinds, the
// dataset, label columns, support and tenant of their input.
func (j *Job) Spec() Spec { return j.work.common() }

// Outcome returns a done job's outcome: *core.Result, *ExploreOutcome
// or *SignificanceOutcome by kind. A done analysis recovered from the
// store has only its summary until Rehydrate re-mines it; Outcome then
// returns ErrNoResult.
func (j *Job) Outcome() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		if j.out == nil {
			return nil, fmt.Errorf("%w: job %s", ErrNoResult, j.id)
		}
		return j.out, nil
	case StateFailed:
		return nil, j.err
	default:
		return nil, fmt.Errorf("jobs: job %s is %s, not done", j.id, j.state)
	}
}

// outcomeAs is Outcome typed for jobs of kind k.
func outcomeAs[T any](j *Job, k Kind) (T, error) {
	var zero T
	if got := j.Kind(); got != k {
		return zero, fmt.Errorf("jobs: job %s is a %s job, not %s", j.id, got, k)
	}
	out, err := j.Outcome()
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// Result returns the mined result of a done analysis job. For done jobs
// recovered from the store only the summary survives; Result returns
// ErrNoResult and callers fall back to Summary.
func (j *Job) Result() (*core.Result, error) { return outcomeAs[*core.Result](j, KindAnalysis) }

// Explore returns the outcome of a done explore job (SubmitExplore).
func (j *Job) Explore() (*ExploreOutcome, error) { return outcomeAs[*ExploreOutcome](j, KindExplore) }

// Significance returns the outcome of a done significance job
// (SubmitSignificance).
func (j *Job) Significance() (*SignificanceOutcome, error) {
	return outcomeAs[*SignificanceOutcome](j, KindSignificance)
}

// Summary returns the durable result digest of a done analysis job, nil
// before then and for other kinds (whose WAL records carry the whole
// outcome instead).
func (j *Job) Summary() *ResultSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summary
}

// Partial returns the latest partial-result snapshot, nil before the
// first one. For jobs recovered from the store this is the
// highest-sequence snapshot the previous process persisted.
func (j *Job) Partial() *Snapshot { return j.partial.Load() }

// Recomputable reports whether the job's full result can in principle be
// re-mined after recovery: its done record carried a spec (schema v2+).
// Whether the re-mine succeeds still depends on the dataset being
// resident when Engine.Rehydrate runs.
func (j *Job) Recomputable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recomputable
}

// Recovered reports whether the job was reconstructed from the store (or
// adopted from a dead peer) rather than run by this process.
func (j *Job) Recovered() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Status is an immutable snapshot of a job's externally visible state.
type Status struct {
	ID        string
	Kind      Kind
	Spec      Spec
	State     State
	Err       string
	CacheHit  bool
	Recovered bool
	Created   time.Time
	Started   time.Time
	Finished  time.Time
	// ProgressDone/ProgressTotal count completed subproblems (mining) or
	// permutations (significance); both are zero until the first one
	// finishes.
	ProgressDone  int64
	ProgressTotal int64
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.id,
		Kind:          j.work.kind(),
		Spec:          j.work.common(),
		State:         j.state,
		CacheHit:      j.cacheHit,
		Recovered:     j.recovered,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		ProgressDone:  j.progressDone.Load(),
		ProgressTotal: j.progressTotal.Load(),
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// NewID mints a job identifier in the engine's format. The cluster
// forwarding layer mints IDs before a submission leaves the ingress
// node, so hedged and retried forwards land idempotently under one ID.
func NewID() (string, error) { return newJobID() }

// newJobID returns a 16-hex-character random identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
