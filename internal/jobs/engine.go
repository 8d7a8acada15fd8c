package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/registry"
)

// Config configures an Engine. The zero value of each field selects a
// sensible default; Registry is required.
type Config struct {
	// Registry resolves dataset hashes to parsed datasets. Required.
	Registry *registry.Registry
	// Workers bounds the worker pool; runtime.GOMAXPROCS(0) when <= 0.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// 64 when <= 0. A full queue rejects with ErrQueueFull.
	QueueDepth int
	// ResultCacheEntries bounds the result LRU; 128 when <= 0.
	ResultCacheEntries int
	// DefaultTimeout is the per-job deadline applied when a Spec carries
	// none; 0 means no deadline.
	DefaultTimeout time.Duration
	// Analyze runs one analysis; RunAnalysis when nil. Tests substitute
	// controllable implementations, and it is the seam for alternative
	// mining backends.
	Analyze AnalyzeFunc
	// Store, when non-nil, receives a write-through record of every job
	// lifecycle transition, making the engine durable across restarts.
	// Engine.Recover opens and attaches one from a directory; supplying
	// it here is mainly for tests.
	Store *Store
	// SnapshotEvery rate-limits how often partial-result snapshots are
	// persisted to the store; <= 0 persists every update. The in-memory
	// snapshot served by the partial/events endpoints always updates on
	// every emission regardless.
	SnapshotEvery time.Duration
	// ExploreCacheEntries bounds the anytime-explore outcome LRU; 64
	// when <= 0.
	ExploreCacheEntries int
	// ExploreSessions bounds the per-dataset navigation-session LRU; 16
	// when <= 0.
	ExploreSessions int
	// SignificanceCacheEntries bounds the significance-outcome LRU; 64
	// when <= 0.
	SignificanceCacheEntries int
	// MaxPermutations caps the permutation count a significance spec may
	// request; 100000 when <= 0.
	MaxPermutations int
	// Queue replaces the default FIFO channel queue — the seam the
	// serving layer uses to install weighted fair queueing. When nil a
	// FIFO of QueueDepth is used; when non-nil QueueDepth is ignored.
	Queue Queue
	// OnTerminal, when non-nil, is called from the worker goroutine each
	// time a job reaches a terminal state (done, failed, canceled) —
	// after the terminal record is durably logged. The cluster layer uses
	// it to replicate completion records to the dataset's other owners.
	OnTerminal func(j *Job)
}

// Queue is the engine's pluggable job queue. Push never blocks (false
// sheds load — the ErrQueueFull contract); Pop blocks until an item or
// Close, then drains the backlog before reporting false. The engine
// guarantees no Push is issued after Close.
type Queue interface {
	Push(j *Job) bool
	Pop() (*Job, bool)
	Len() int
	Cap() int
	Close()
}

// chanQueue is the default FIFO queue: a plain bounded channel.
type chanQueue struct{ ch chan *Job }

func (q chanQueue) Push(j *Job) bool {
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

func (q chanQueue) Pop() (*Job, bool) {
	j, ok := <-q.ch
	return j, ok
}

func (q chanQueue) Len() int { return len(q.ch) }
func (q chanQueue) Cap() int { return cap(q.ch) }
func (q chanQueue) Close()   { close(q.ch) }

// Stats is a point-in-time snapshot of the engine counters for /statsz.
type Stats struct {
	Workers   int   `json:"workers"`
	Busy      int   `json:"busy"`
	QueueLen  int   `json:"queue_len"`
	QueueCap  int   `json:"queue_cap"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Durable reports whether a job store is attached; Recovered counts
	// jobs reconstructed from it at startup, Rehydrated counts recovered
	// jobs whose full result was re-mined on demand (Engine.Rehydrate),
	// and StoreErrors counts best-effort write-through appends that
	// failed.
	Durable     bool       `json:"durable"`
	Recovered   int64      `json:"recovered"`
	Rehydrated  int64      `json:"rehydrated"`
	StoreErrors int64      `json:"store_errors"`
	ResultCache CacheStats `json:"result_cache"`
	// Explore is the anytime exploration/navigation tier.
	Explore ExploreStats `json:"explore"`
	// Significance is the permutation-testing tier.
	Significance SignificanceStats `json:"significance"`
}

// Engine is the asynchronous job engine: a bounded worker pool
// consuming a bounded queue, with an LRU outcome cache per job kind. All
// methods are safe for concurrent use.
type Engine struct {
	cfg Config // with defaults filled in
	reg *registry.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.RWMutex // guards queue-close vs. submit
	draining bool
	queue    Queue

	jobsMu sync.Mutex
	jobs   map[string]*Job

	wg sync.WaitGroup

	store atomic.Pointer[Store]

	// tiers holds each job kind's outcome cache and counters; sessions
	// are the explore kind's per-dataset navigation contexts.
	tiers    map[Kind]*tier
	sessions *lru.Cache[string, *session]
	expands  atomic.Int64
	sigPerms atomic.Int64

	// onTerminal holds the terminal-state hook (Config.OnTerminal, or a
	// later SetOnTerminal) behind an atomic so the serving layer can
	// attach cluster replication after construction.
	onTerminal atomic.Pointer[func(j *Job)]

	busy       atomic.Int64
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	canceled   atomic.Int64
	rejected   atomic.Int64
	recovered  atomic.Int64
	rehydrated atomic.Int64
	storeErrs  atomic.Int64
}

// tier is one job kind's outcome cache and counters.
type tier struct {
	cache   *lru.Cache[string, any]
	queries atomic.Int64 // asks, cache hits included
	runs    atomic.Int64 // asks that missed the cache and computed
}

// orDefault returns n, or def when n <= 0.
func orDefault(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// New starts an engine with cfg.Workers workers. Call Shutdown to drain.
func New(cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("jobs: Config.Registry is required")
	}
	if cfg.Analyze == nil {
		cfg.Analyze = RunAnalysis
	}
	cfg.Workers = orDefault(cfg.Workers, runtime.GOMAXPROCS(0))
	queue := cfg.Queue
	if queue == nil {
		queue = chanQueue{ch: make(chan *Job, orDefault(cfg.QueueDepth, 64))}
	}
	// lint:ignore ctxflow the engine root context outlives any caller request; it is canceled by Engine.Close, not by whoever happened to construct the engine
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		reg:        cfg.Registry,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      queue,
		jobs:       make(map[string]*Job),
		tiers: map[Kind]*tier{
			KindAnalysis:     {cache: lru.NewCache[string, any](orDefault(cfg.ResultCacheEntries, 128))},
			KindExplore:      {cache: lru.NewCache[string, any](orDefault(cfg.ExploreCacheEntries, 64))},
			KindSignificance: {cache: lru.NewCache[string, any](orDefault(cfg.SignificanceCacheEntries, 64))},
		},
		sessions: lru.NewCache[string, *session](orDefault(cfg.ExploreSessions, 16)),
	}
	if cfg.Store != nil {
		e.store.Store(cfg.Store)
	}
	if cfg.OnTerminal != nil {
		e.SetOnTerminal(cfg.OnTerminal)
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Store returns the attached write-ahead store, or nil when the engine
// is not durable. The monitor subsystem shares it for spec durability.
func (e *Engine) Store() *Store { return e.store.Load() }

// worker consumes the queue until it is closed by Shutdown.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		job, ok := e.queue.Pop()
		if !ok {
			return
		}
		e.run(job)
	}
}

// Submit enqueues an analysis job for spec. It never blocks: a full
// queue returns ErrQueueFull (the backpressure contract), a draining
// engine returns ErrShuttingDown. With a store attached the submission
// is written ahead — a submit the store cannot record is refused, so
// every acknowledged job survives a crash.
func (e *Engine) Submit(spec Spec) (*Job, error) { return e.submitNew(&spec) }

// SubmitExplore enqueues an anytime exploration as an asynchronous job:
// top-K refinements stream through the job's partial-result snapshots,
// the final one carrying the completion reason, and the outcome is read
// with Job.Explore.
func (e *Engine) SubmitExplore(spec ExploreSpec) (*Job, error) { return e.submitNew(&spec) }

// SubmitSignificance enqueues a significance query as an asynchronous
// job: permutation progress streams through the job's progress
// counters, the final snapshot's Reason is "complete", and the outcome
// is read with Job.Significance.
func (e *Engine) SubmitSignificance(spec SignificanceSpec) (*Job, error) {
	return e.submitNew(&spec)
}

// SubmitAdopted enqueues an analysis job under an externally minted ID
// — the cluster layer mints IDs on the forwarding node so retried,
// hedged and failed-over submissions land idempotently. Resubmitting an
// ID the engine already holds returns the existing job unchanged.
func (e *Engine) SubmitAdopted(id string, spec Spec) (*Job, error) { return e.submit(id, spec, true) }

// SubmitAs is SubmitAdopted for a job of any kind: in is a *Spec,
// *ExploreSpec or *SignificanceSpec, which the engine takes over. The
// serving layer submits every kind this way, so admission can charge a
// tenant under the job's ID before the job exists.
func (e *Engine) SubmitAs(id string, in workload) (*Job, error) { return e.enqueue(id, in, true) }

// submit enqueues an analysis under id.
func (e *Engine) submit(id string, spec Spec, adopted bool) (*Job, error) {
	return e.enqueue(id, &spec, adopted)
}

// submitNew enqueues w under a freshly minted ID.
func (e *Engine) submitNew(w workload) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	return e.enqueue(id, w, false)
}

// enqueue is the one enqueue path for every job kind, fresh or adopted.
// The input is validated first; the job is then made visible in the job
// table before the write-ahead append so concurrent duplicate
// submissions under the same ID resolve to one winner under jobsMu, and
// adopted re-submissions return the existing job unchanged.
func (e *Engine) enqueue(id string, w workload, adopted bool) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: empty job id")
	}
	if err := w.validate(e); err != nil {
		return nil, err
	}
	job := &Job{id: id, work: w, state: StateQueued, created: time.Now()}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.draining {
		e.rejected.Add(1)
		return nil, ErrShuttingDown
	}
	e.jobsMu.Lock()
	if existing, ok := e.jobs[id]; ok {
		e.jobsMu.Unlock()
		if adopted {
			return existing, nil
		}
		return nil, fmt.Errorf("jobs: duplicate job id %s", id)
	}
	e.jobs[id] = job
	e.jobsMu.Unlock()
	undo := func() {
		e.jobsMu.Lock()
		delete(e.jobs, id)
		e.jobsMu.Unlock()
	}
	if st := e.store.Load(); st != nil {
		if err := st.Append(job.Record()); err != nil {
			undo()
			e.storeErrs.Add(1)
			e.rejected.Add(1)
			return nil, fmt.Errorf("jobs: write-ahead submit: %w", err)
		}
	}
	if e.queue.Push(job) {
		e.submitted.Add(1)
		return job, nil
	}
	undo()
	e.rejected.Add(1)
	// Close out the already-written submitted record so recovery
	// does not resurrect a job the client was refused.
	e.logRecord(Record{Type: RecRejected, Job: id, Error: ErrQueueFull.Error()})
	return nil, ErrQueueFull
}

// AdoptDone installs a terminal done analysis job reconstructed from a
// dead peer's replicated record: the durable summary is immediately
// servable, and the full result re-mines on demand through Rehydrate
// once the dataset replica is resident. See Adopt.
func (e *Engine) AdoptDone(id string, spec Spec, summary *ResultSummary) (*Job, error) {
	return e.Adopt(Record{Type: RecDone, Job: id, Spec: &spec, Result: summary})
}

// Adopt re-homes one job from a dead peer's replicated Job.Record,
// idempotently in the job ID. A submitted record re-runs the job here
// under its original ID; a done record installs the job folded exactly
// as recovery folds it, and is logged so it survives this node's
// restarts. Failed and canceled records need nothing (nil, nil).
func (e *Engine) Adopt(rec Record) (*Job, error) {
	if rec.Job == "" {
		return nil, fmt.Errorf("jobs: empty job id")
	}
	switch rec.Type {
	case RecSubmitted:
		w, _ := decodeRecord(rec)
		if w == nil {
			return nil, fmt.Errorf("jobs: adopted record for job %s carries no readable input", rec.Job)
		}
		return e.enqueue(rec.Job, w, true)
	case RecDone:
		if rec.Time.IsZero() {
			rec.Time = time.Now()
		}
		job := &Job{id: rec.Job, work: new(Spec), created: rec.Time, recovered: true}
		job.apply(rec)
		e.jobsMu.Lock()
		if existing, ok := e.jobs[rec.Job]; ok {
			e.jobsMu.Unlock()
			return existing, nil
		}
		e.jobs[rec.Job] = job
		e.jobsMu.Unlock()
		e.recovered.Add(1)
		e.logRecord(rec)
		return job, nil
	}
	return nil, nil
}

// logRecord is the best-effort write-through: failures are counted, not
// propagated — a sick disk must not take down in-flight analyses whose
// results are still servable from memory.
func (e *Engine) logRecord(rec Record) {
	st := e.store.Load()
	if st == nil {
		return
	}
	if err := st.Append(rec); err != nil {
		e.storeErrs.Add(1)
	}
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A queued job is canceled
// immediately; a running job has its context canceled and reaches the
// canceled state once the miner observes it. Terminal jobs keep their
// state, but a recovered done job with a rehydration re-mine in flight
// has that re-mine aborted — a deleted job must not repopulate caches
// from beyond the grave. The returned status reflects the state after
// the request.
func (e *Engine) Cancel(id string) (Status, error) {
	job, ok := e.Get(id)
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.canceledByUser.Store(true)
	job.mu.Lock()
	canceledWhileQueued := job.state == StateQueued
	switch {
	case canceledWhileQueued:
		job.state = StateCanceled
		job.finished = time.Now()
		e.canceled.Add(1)
	case job.cancel != nil: // running
		job.cancel()
	case job.rehydrateCancel != nil: // recovered done, re-mining
		job.rehydrateCancel()
	}
	job.mu.Unlock()
	if canceledWhileQueued {
		// A canceled-while-queued job never reaches run(), so its
		// terminal record is written here.
		e.logRecord(Record{Type: RecCanceled, Job: job.id, Error: "canceled while queued"})
		e.notifyTerminal(job)
	}
	return job.Snapshot(), nil
}

// SetOnTerminal installs (or replaces) the terminal-state hook. The
// serving layer calls it after construction to wire admission release
// and cluster replication; a hook given in Config.OnTerminal is
// installed by New through the same path.
func (e *Engine) SetOnTerminal(fn func(j *Job)) {
	if fn == nil {
		e.onTerminal.Store(nil)
		return
	}
	e.onTerminal.Store(&fn)
}

// notifyTerminal invokes the OnTerminal hook, if configured.
func (e *Engine) notifyTerminal(job *Job) {
	if fn := e.onTerminal.Load(); fn != nil {
		(*fn)(job)
	}
}

// run executes one dequeued job through the full lifecycle.
func (e *Engine) run(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // canceled while queued
		job.mu.Unlock()
		return
	}
	timeout := job.work.common().Timeout
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()
	defer cancel()

	e.busy.Add(1)
	defer e.busy.Add(-1)

	e.logRecord(Record{Type: RecRunning, Job: job.id, Time: job.started})
	tr := &Tracker{
		job:   job,
		every: e.cfg.SnapshotEvery,
		persist: func(snap *Snapshot) {
			e.logRecord(Record{Type: RecSnapshot, Job: job.id, Snapshot: snap})
		},
	}
	out, cacheHit, err := e.do(ctx, job.work, tr)

	// Build the outcome on a detached job and log its terminal record
	// before publishing it: a client that sees the job finished can rely
	// on the record being durable. Summarize outside the job lock too —
	// it ranks the whole lattice, and status polls must not stall on it.
	fin := &Job{id: job.id, work: job.work, err: err, finished: time.Now()}
	switch {
	case err == nil:
		fin.state, fin.out, fin.summary, fin.cacheHit = StateDone, out, summaryOf(job.work, out), cacheHit
		e.completed.Add(1)
	case errors.Is(err, context.Canceled) || (job.canceledByUser.Load() && ctx.Err() != nil):
		fin.state = StateCanceled
		e.canceled.Add(1)
	default:
		// Deadline expiry and analysis errors are failures, not
		// user-requested cancellations.
		fin.state = StateFailed
		e.failed.Add(1)
	}
	if e.store.Load() != nil { // encoding an outcome costs a marshal
		e.logRecord(fin.Record())
	}

	job.mu.Lock()
	job.state, job.err, job.finished = fin.state, fin.err, fin.finished
	job.out, job.summary, job.cacheHit = fin.out, fin.summary, fin.cacheHit
	job.cancel = nil
	job.mu.Unlock()
	e.notifyTerminal(job)
}

// do answers w through its kind's outcome cache — the one path behind
// every synchronous call (tr nil) and every job run. A hit is served
// as-is (a copy marked cache_hit, for outcomes that report it); a miss
// runs the kind and caches the outcome when the kind says it may answer
// later asks.
func (e *Engine) do(ctx context.Context, w workload, tr *Tracker) (any, bool, error) {
	t := e.tiers[w.kind()]
	t.queries.Add(1)
	key := w.CacheKey()
	if v, ok := t.cache.Get(key); ok {
		if m, ok := v.(interface{ markHit() any }); ok {
			v = m.markHit()
		}
		return v, true, nil
	}
	t.runs.Add(1)
	out, keep, err := w.run(ctx, e, tr)
	if err != nil {
		return nil, false, err
	}
	if keep {
		t.cache.Put(key, out)
	}
	return out, false, nil
}

// syncDo validates w and answers it through do on the caller's
// goroutine, without a worker slot or a queue position.
func syncDo[T any](ctx context.Context, e *Engine, w workload) (T, error) {
	var zero T
	if err := w.validate(e); err != nil {
		return zero, err
	}
	out, _, err := e.do(ctx, w, nil)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// Analyze runs a spec synchronously through the same result cache the
// worker pool uses — the /analyze fast path.
func (e *Engine) Analyze(ctx context.Context, spec Spec) (*core.Result, error) {
	return syncDo[*core.Result](ctx, e, &spec)
}

// summaryOf digests an analysis outcome into the durable summary its
// done record carries; other kinds log their outcome whole and have
// none.
func summaryOf(w workload, out any) *ResultSummary {
	if res, ok := out.(*core.Result); ok {
		return summarize(res, w.common())
	}
	return nil
}

// Shutdown drains the engine: no new submissions are accepted, queued
// jobs are still executed, and the call returns once every worker has
// exited. If ctx expires first, in-flight jobs are canceled and awaited;
// the context error is returned. Shutdown is idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	alreadyDraining := e.draining
	if !alreadyDraining {
		e.draining = true
		e.queue.Close()
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		e.baseCancel()
		return e.closeStore()
	case <-ctx.Done():
		e.baseCancel() // abort in-flight jobs, then wait for workers
		<-drained
		_ = e.closeStore() // the deadline error takes precedence
		return fmt.Errorf("jobs: shutdown deadline: %w", ctx.Err())
	}
}

// closeStore detaches and closes the store, if any. Called after the
// drain so every worker's terminal record has been appended.
func (e *Engine) closeStore() error {
	st := e.store.Swap(nil)
	if st == nil {
		return nil
	}
	return st.Close()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:      e.cfg.Workers,
		Busy:         int(e.busy.Load()),
		QueueLen:     e.queue.Len(),
		QueueCap:     e.queue.Cap(),
		Submitted:    e.submitted.Load(),
		Completed:    e.completed.Load(),
		Failed:       e.failed.Load(),
		Canceled:     e.canceled.Load(),
		Rejected:     e.rejected.Load(),
		Durable:      e.store.Load() != nil,
		Recovered:    e.recovered.Load(),
		Rehydrated:   e.rehydrated.Load(),
		StoreErrors:  e.storeErrs.Load(),
		ResultCache:  e.tiers[KindAnalysis].cache.Stats(),
		Explore:      e.ExploreStatsSnapshot(),
		Significance: e.SignificanceStatsSnapshot(),
	}
}
