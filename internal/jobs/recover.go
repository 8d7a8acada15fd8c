package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// Recover opens the job store rooted at dir, replays its log into the
// engine's job table, and attaches the store for write-through — the
// startup path of a durable server. After Recover:
//
//   - jobs whose log reached a terminal state are visible with their
//     kind and recorded outcome: done explore and significance jobs
//     (schema v3) get their exact outcome back; done analyses carry the
//     durable result summary and, when their done record was written in
//     schema v2 or later, the spec needed to re-mine the full result on
//     demand (Rehydrate). The highest-sequence persisted partial
//     snapshot, if any, is reattached;
//   - jobs the previous process left queued or running are re-marked
//     failed with ErrInterrupted — visible and explained, never
//     silently lost — and the re-mark is itself written to the log so
//     the next recovery sees a terminal state;
//   - submissions the previous process refused (rejected records) are
//     dropped: the client was already told no.
//
// A torn final line (crash mid-append) is repaired by the store on
// open. Recover returns the number of jobs reconstructed. It is meant
// to run once, before the engine serves traffic; attaching a second
// store is an error.
func (e *Engine) Recover(dir string) (int, error) { return e.RecoverFS(dir, nil) }

// RecoverFS is Recover with the store's file I/O routed through fsys
// (the real filesystem when nil) — the seam chaos tests use to replay
// recovery against injected disk faults.
func (e *Engine) RecoverFS(dir string, fsys faultfs.FS) (int, error) {
	st, err := OpenStoreFS(dir, fsys)
	if err != nil {
		return 0, err
	}
	if !e.store.CompareAndSwap(nil, st) {
		closeErr := st.Close()
		return 0, errors.Join(fmt.Errorf("jobs: a store is already attached"), closeErr)
	}

	jobsByID := make(map[string]*Job)
	rejected := make(map[string]bool) // the client was told no
	var order []string                // log order, for deterministic re-mark records
	for _, rec := range st.Replay() {
		if rec.MonitorRecord() {
			continue // monitor subsystem records; monitor.Manager.Recover folds them
		}
		j := jobsByID[rec.Job]
		if j == nil {
			j = &Job{id: rec.Job, work: new(Spec), state: StateQueued, created: rec.Time, recovered: true}
			jobsByID[rec.Job] = j
			order = append(order, rec.Job)
		}
		if rec.Type == RecRejected {
			rejected[rec.Job] = true
		}
		j.apply(rec)
	}

	now := time.Now()
	var interrupted []string
	n := 0
	e.jobsMu.Lock()
	for _, id := range order {
		if rejected[id] {
			continue
		}
		j := jobsByID[id]
		if !j.state.Terminal() {
			j.state = StateFailed
			j.err = ErrInterrupted
			j.finished = now
			interrupted = append(interrupted, id)
		}
		if _, live := e.jobs[id]; live {
			continue // never clobber a job this process is running
		}
		e.jobs[id] = j
		n++
	}
	e.jobsMu.Unlock()
	e.recovered.Store(int64(n))

	// Re-mark interrupted jobs in the log, outside jobsMu: Append fsyncs.
	for _, id := range interrupted {
		e.logRecord(Record{Type: RecFailed, Job: id, Error: ErrInterrupted.Error()})
	}
	return n, nil
}

// apply folds one log record into the job being reconstructed, on
// recovery and on adoption from a dead peer. Records arrive in log
// order, so the last state transition wins; snapshots are the exception
// — parallel workers may log them out of order, so the highest sequence
// number wins.
func (j *Job) apply(rec Record) {
	switch rec.Type {
	case RecSubmitted:
		if w, _ := decodeRecord(rec); w != nil {
			j.work = w
		}
		j.created = rec.Time
	case RecRunning:
		j.state = StateRunning
		j.started = rec.Time
	case RecSnapshot:
		if snap := rec.Snapshot; snap != nil {
			if cur := j.partial.Load(); cur == nil || snap.Seq > cur.Seq {
				j.partial.Store(snap)
				j.progressDone.Store(int64(snap.Done))
				j.progressTotal.Store(int64(snap.Total))
			}
		}
	case RecDone:
		j.state = StateDone
		j.summary = rec.Result
		j.cacheHit = rec.CacheHit
		j.finished = rec.Time
		// An analysis done record of schema v2+ carries the spec, the
		// recipe Rehydrate re-mines from; v1 records leave it nil and the
		// job folds to summary-only. Other kinds carry the exact outcome.
		j.recomputable = rec.Spec != nil
		if w, out := decodeRecord(rec); w != nil {
			j.work, j.out = w, out
		}
	case RecFailed:
		j.state = StateFailed
		j.err = recordError(rec.Error)
		j.finished = rec.Time
	case RecCanceled:
		j.state = StateCanceled
		j.err = recordError(rec.Error)
		j.finished = rec.Time
	}
	// Unknown record types (a newer format) are skipped: replay is
	// forward-compatible with additive changes.
}

// decodeRecord rebuilds the input a submitted or done record carries
// and, for kinds logged whole, the outcome of a done record. It returns
// a nil input when the record has none it can read (a v1 done record,
// a kind this build does not know).
func decodeRecord(rec Record) (workload, any) {
	if mk, ok := kinds[rec.Kind]; ok {
		w, out := mk()
		if json.Unmarshal(rec.Input, w) != nil {
			return nil, nil
		}
		if rec.Outcome == nil || json.Unmarshal(rec.Outcome, out) != nil {
			return w, nil
		}
		return w, out
	}
	if rec.Spec == nil || (rec.Kind != "" && rec.Kind != KindAnalysis) {
		return nil, nil
	}
	spec := *rec.Spec
	return &spec, nil
}

// Record encodes the job's current state as the log record the store
// appends and the cluster layer hands to a replica (see Adopt): the
// submitted record while queued or running, the done record once done,
// a bare terminal marker once failed or canceled.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := Record{Job: j.id}
	switch j.state {
	case StateQueued, StateRunning:
		rec.Type, rec.Time = RecSubmitted, j.created
	case StateDone:
		rec.Type, rec.Time, rec.Result, rec.CacheHit = RecDone, j.finished, j.summary, j.cacheHit
	default:
		rec.Type, rec.Time = RecFailed, j.finished
		if j.state == StateCanceled {
			rec.Type = RecCanceled
		}
		if j.err != nil {
			rec.Error = j.err.Error()
		}
		return rec
	}
	if spec, ok := j.work.(*Spec); ok {
		rec.Spec = spec
		return rec
	}
	// Inputs and outcomes are plain structs of finite numbers; one that
	// does not encode leaves the record without it, and replay folds the
	// job as having nothing to serve.
	rec.Kind = j.work.kind()
	rec.Input, _ = json.Marshal(j.work)
	if rec.Type == RecDone && j.out != nil {
		rec.Outcome, _ = json.Marshal(j.out)
	}
	return rec
}

// Rehydrate re-mines the full result of a done analysis job that was
// recovered from the store (or adopted from a dead peer) — the lazy half
// of full-result durability. Other kinds never re-mine: their done
// record carries the exact outcome, which recovery reinstalls. The done
// record's spec (schema v2) names the dataset by content hash; if the
// registry still holds it, the exploration re-runs through the shared
// result cache and the result is pinned back onto the job, so the first
// GET /jobs/{id}/result after a restart pays the mine and every later
// one is free. Mining is deterministic (the parallel miner canonicalizes
// and sorts its output), so the rehydrated result renders byte-identical
// to the pre-crash response.
//
// Failure modes, in the order the server's fallback chain meets them:
// a job that is not done fails outright; a v1-format job (no spec on the
// done record) returns ErrNoResult; an evicted or never-re-registered
// dataset returns ErrDatasetGone. In the latter two cases the durable
// summary is still servable.
func (e *Engine) Rehydrate(ctx context.Context, job *Job) (*core.Result, error) {
	spec, analysis := job.work.(*Spec)
	job.mu.Lock()
	state, out, recomputable := job.state, job.out, job.recomputable
	job.mu.Unlock()
	switch {
	case state != StateDone:
		return nil, fmt.Errorf("jobs: job %s is %s, not done", job.id, state)
	case !analysis:
		return nil, fmt.Errorf("jobs: job %s is a %s job; only analyses re-mine", job.id, job.Kind())
	case out != nil:
		return out.(*core.Result), nil
	case !recomputable:
		return nil, fmt.Errorf("%w: job %s has no recompute spec (v1 done record)", ErrNoResult, job.id)
	}

	job.rehydrateMu.Lock()
	defer job.rehydrateMu.Unlock()
	job.mu.Lock()
	out = job.out
	job.mu.Unlock()
	if out != nil { // a concurrent fetch already re-mined it
		return out.(*core.Result), nil
	}
	// Expose a cancel handle while the re-mine is in flight: Cancel on a
	// recovered done job (DELETE mid-rehydrate) aborts the mine here
	// instead of letting it finish and repopulate caches.
	rctx, rcancel := context.WithCancel(ctx)
	job.mu.Lock()
	job.rehydrateCancel = rcancel
	job.mu.Unlock()
	out, _, err := e.do(rctx, spec, nil)
	job.mu.Lock()
	job.rehydrateCancel = nil
	job.mu.Unlock()
	rcancel()
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	job.out = out
	job.mu.Unlock()
	e.rehydrated.Add(1)
	return out.(*core.Result), nil
}

// recordError rehydrates a persisted error string. The interrupted
// sentinel round-trips as ErrInterrupted so errors.Is keeps working
// across restarts.
func recordError(msg string) error {
	switch msg {
	case "":
		return errors.New("jobs: failed in a previous run (no recorded error)")
	case ErrInterrupted.Error():
		return ErrInterrupted
	}
	return errors.New(msg)
}
