package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// wideCSV renders a seeded random dataset with attrs three-valued
// attributes — enough frequent singletons that the parallel miner splits
// the lattice into many subproblems.
func wideCSV(seed int64, rows, attrs int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for a := 0; a < attrs; a++ {
		fmt.Fprintf(&sb, "a%d,", a)
	}
	sb.WriteString("truth,pred\n")
	for r := 0; r < rows; r++ {
		for a := 0; a < attrs; a++ {
			fmt.Fprintf(&sb, "v%d,", rng.Intn(3))
		}
		fmt.Fprintf(&sb, "%d,%d\n", rng.Intn(2), rng.Intn(2))
	}
	return sb.String()
}

// durableEngine builds an engine over reg writing through to a store in
// dir, shut down at test end.
func durableEngine(t *testing.T, reg *registry.Registry, dir string, cfg Config) *Engine {
	t.Helper()
	cfg.Registry = reg
	cfg.Store = openTestStore(t, dir)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	return e
}

// TestPartialSeqMonotoneUnderParallelMining runs real analyses with
// several mining workers and several engine workers while a poller
// watches each job: the partial snapshot's Seq and the progress count it
// sees never decrease, and recovery reattaches exactly the last live
// snapshot.
func TestPartialSeqMonotoneUnderParallelMining(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fpm.Parallel sizes its pool by GOMAXPROCS
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(wideCSV(7, 300, 10)), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := durableEngine(t, reg, dir, Config{Workers: 2, SnapshotEvery: 0})

	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	live := make([]*Job, n)
	for i := 0; i < n; i++ {
		spec := Spec{Dataset: entry.Hash, TruthCol: "truth", PredCol: "pred",
			Support: 0.02 + 0.01*float64(i), Metrics: []string{"FPR"}, TopK: 5}
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = job
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq, done int64
			for !job.Snapshot().State.Terminal() {
				if s := job.Partial(); s != nil {
					if s.Seq < seq {
						errs <- fmt.Errorf("job %s: partial seq went backwards: %d after %d", job.ID(), s.Seq, seq)
						return
					}
					seq = s.Seq
				}
				if d := job.Snapshot().ProgressDone; d < done {
					errs <- fmt.Errorf("job %s: progress went backwards: %d after %d", job.ID(), d, done)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, job := range live {
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", job.ID(), st.State, st.Err)
		}
		if s := job.Partial(); s == nil || s.Done != s.Total || s.Total < 2 {
			t.Fatalf("job %s final partial = %+v, want a completed multi-subproblem mine", job.ID(), s)
		}
	}

	e2, _ := recoveredEngine(t, copyWAL(t, dir))
	for _, job := range live {
		got, _ := e2.Get(job.ID())
		if want, snap := job.Partial(), got.Partial(); snap == nil || snap.Seq != want.Seq {
			t.Errorf("job %s recovered partial = %+v, want seq %d", job.ID(), snap, want.Seq)
		}
	}
}

// TestFinalPartialEqualsSummaryTop runs the analysis pipeline with
// several mining workers: whatever order the workers finish in, the
// last partial snapshot must be exactly the job's own summary top —
// same itemsets, same order, same floats — and so the same on every run.
func TestFinalPartialEqualsSummaryTop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fpm.Parallel sizes its pool by GOMAXPROCS
	data, err := dataset.ReadCSV(strings.NewReader(wideCSV(7, 300, 10)), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{TruthCol: "truth", PredCol: "pred", Support: 0.02, Metrics: []string{"FPR"}, TopK: 10}
	var first []PartialPattern
	for run := 0; run < 20; run++ {
		job := &Job{id: "final"}
		res, err := RunAnalysis(context.Background(), data, spec, &Tracker{job: job})
		if err != nil {
			t.Fatal(err)
		}
		final := job.Partial()
		if final == nil || final.Done != final.Total || final.Total < 2 {
			t.Fatalf("run %d: final partial = %+v, want a completed multi-subproblem mine", run, final)
		}
		want := summarize(res, spec).Metrics[0].Top
		if len(want) != spec.TopK {
			t.Fatalf("run %d: summary top holds %d patterns, want %d", run, len(want), spec.TopK)
		}
		if !reflect.DeepEqual(final.Top, want) {
			t.Fatalf("run %d: final partial top differs from the summary top\n got %+v\nwant %+v", run, final.Top, want)
		}
		if run == 0 {
			first = final.Top
		} else if !reflect.DeepEqual(final.Top, first) {
			t.Fatalf("run %d: final partial top differs from run 0", run)
		}
	}
}

// TestRecoverKeepsHighestSeqSnapshot: parallel workers can log
// snapshots out of sequence order; recovery keeps the highest sequence
// number, not the last line.
func TestRecoverKeepsHighestSeqSnapshot(t *testing.T) {
	dir := t.TempDir()
	log := `{"v":3,"type":"submitted","job":"j","time":"2026-01-01T00:00:00Z","spec":{"Dataset":"d","TruthCol":"truth","PredCol":"pred","Support":0.1}}
{"v":3,"type":"running","job":"j","time":"2026-01-01T00:00:01Z"}
{"v":3,"type":"snapshot","job":"j","time":"2026-01-01T00:00:02Z","snapshot":{"seq":4,"done":4,"total":4,"patterns":9,"top":null,"updated":"2026-01-01T00:00:02Z"}}
{"v":3,"type":"snapshot","job":"j","time":"2026-01-01T00:00:03Z","snapshot":{"seq":3,"done":3,"total":4,"patterns":7,"top":null,"updated":"2026-01-01T00:00:02Z"}}
`
	if err := os.WriteFile(filepath.Join(dir, WALName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := recoveredEngine(t, dir)
	job, _ := e.Get("j")
	if s := job.Partial(); s == nil || s.Seq != 4 {
		t.Fatalf("recovered partial = %+v, want seq 4", s)
	}
	if st := job.Snapshot(); st.ProgressDone != 4 || st.ProgressTotal != 4 {
		t.Errorf("recovered progress = %d/%d, want 4/4", st.ProgressDone, st.ProgressTotal)
	}
}

// TestNonAnalysisJobsKeepKindAcrossRecover: finished explore jobs (a
// pattern budget, a wall-clock budget) and a seeded Westfall–Young
// significance job come back from the WAL with their kind and a
// reflect.DeepEqual outcome — without the dataset, so nothing can have
// been recomputed, and with the rehydration counter flat.
func TestNonAnalysisJobsKeepKindAcrossRecover(t *testing.T) {
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(wideCSV(3, 400, 8)), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := durableEngine(t, reg, dir, Config{Workers: 2})

	capped := ExploreSpec{Dataset: entry.Hash, TruthCol: "truth", PredCol: "pred", Support: 0.02, Metric: "FPR", TopK: 5, MaxPatterns: 40}
	timed := capped
	timed.MaxPatterns, timed.BudgetMS, timed.Metric = 0, 1, "FNR"
	sig := SignificanceSpec{Dataset: entry.Hash, TruthCol: "truth", PredCol: "pred", Support: 0.1, Metric: "FPR",
		Method: MethodWY, Alpha: 0.2, Permutations: 100, Seed: 11, TopK: 5}

	var submitted []*Job
	for _, submit := range []func() (*Job, error){
		func() (*Job, error) { return e.SubmitExplore(capped) },
		func() (*Job, error) { return e.SubmitExplore(timed) },
		func() (*Job, error) { return e.SubmitSignificance(sig) },
	} {
		job, err := submit()
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("job %s (%s): %s (%s)", job.ID(), st.Kind, st.State, st.Err)
		}
		submitted = append(submitted, job)
	}
	if out, _ := submitted[0].Explore(); out.Reason != "budget" || !out.Partial {
		t.Fatalf("pattern-capped explore = %+v, want a budget-cut outcome", out)
	}

	e2, n := recoveredEngine(t, copyWAL(t, dir)) // empty registry
	if n != len(submitted) {
		t.Fatalf("recovered %d jobs, want %d", n, len(submitted))
	}
	for _, live := range submitted {
		got, ok := e2.Get(live.ID())
		if !ok {
			t.Fatalf("job %s not recovered", live.ID())
		}
		st := got.Snapshot()
		if st.Kind != live.Kind() || st.State != StateDone || !st.Recovered {
			t.Fatalf("recovered status = %+v, want a done %s job", st, live.Kind())
		}
		want, _ := live.Outcome()
		out, err := got.Outcome()
		if err != nil {
			t.Fatalf("recovered %s outcome: %v", live.Kind(), err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Errorf("recovered %s outcome differs:\n got %+v\nwant %+v", live.Kind(), out, want)
		}
		if got.Spec().Dataset != entry.Hash {
			t.Errorf("recovered %s job lost its dataset: %+v", live.Kind(), got.Spec())
		}
		if _, err := e2.Rehydrate(context.Background(), got); err == nil {
			t.Errorf("Rehydrate of a %s job succeeded; only analyses re-mine", live.Kind())
		}
	}
	if _, err := submitted[0].Significance(); err == nil {
		t.Error("Significance() on an explore job returned no error")
	}
	if s := e2.Stats(); s.Rehydrated != 0 || s.Explore.Mines != 0 || s.Significance.Runs != 0 {
		t.Errorf("recovery recomputed: rehydrated %d, explore mines %d, significance runs %d",
			s.Rehydrated, s.Explore.Mines, s.Significance.Runs)
	}
}

// TestRecordLayoutByKind pins the v3 record shapes: an analysis keeps
// the v2 layout (spec, summary, no kind), other kinds carry their kind,
// their input and — once done — their outcome instead of a spec.
func TestRecordLayoutByKind(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	analysis, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	explore, err := e.SubmitExplore(sampleExploreSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, analysis)
	waitTerminal(t, explore)

	rec := analysis.Record()
	if rec.Type != RecDone || rec.Kind != "" || rec.Spec == nil || rec.Result == nil || rec.Input != nil || rec.Outcome != nil {
		t.Errorf("analysis done record = %+v, want the v2 layout", rec)
	}
	rec = explore.Record()
	if rec.Type != RecDone || rec.Kind != KindExplore || rec.Spec != nil || rec.Result != nil || rec.Input == nil || rec.Outcome == nil {
		t.Fatalf("explore done record = %+v, want kind, input and outcome", rec)
	}
	var in ExploreSpec
	if err := json.Unmarshal(rec.Input, &in); err != nil || in.Dataset != h || in.Metric != "ER" {
		t.Errorf("explore input = %+v (%v), want the validated spec", in, err)
	}
}

// TestAdoptFoldsRecordLikeRecovery: a replica adopting a finished
// explore job from its record serves the exact logged outcome, and an
// adopted in-flight record re-runs under the original ID with its kind.
func TestAdoptFoldsRecordLikeRecovery(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	donor, err := e.SubmitExplore(sampleExploreSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, donor)
	raw, err := json.Marshal(donor.Record()) // as replicated over the wire
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}

	replica, err := New(Config{Registry: registry.New(0), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = replica.Shutdown(ctx)
	}()
	job, err := replica.Adopt(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := donor.Explore()
	got, err := job.Explore()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted outcome = %+v (%v), want %+v", got, err, want)
	}
	if again, err := replica.Adopt(rec); err != nil || again != job {
		t.Errorf("re-adoption = (%p, %v), want the existing job", again, err)
	}

	sub := rec
	sub.Type, sub.Job, sub.Outcome = RecSubmitted, "in-flight", nil
	rerun, err := e.Adopt(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, rerun); st.Kind != KindExplore || st.State != StateDone {
		t.Fatalf("adopted in-flight job = %+v, want a done explore job", st)
	}
}
