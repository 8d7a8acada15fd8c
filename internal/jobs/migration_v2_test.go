package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// The checked-in fixture testdata/v2_jobs.wal was written by the v2
// record format: records have no kind, and done records carry the spec
// and the durable summary. These tests pin the v2 → v3 migration
// contract: the log replays unchanged under the v3 reader (every job an
// analysis), its done job re-mines byte-identically from the spec, and
// new appends to the same log are written as v3.

// stageV2Fixture copies the fixture log into a fresh store directory
// and returns it with the fixture's records.
func stageV2Fixture(t *testing.T) (string, []Record) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v2_jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, err := scanLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	return dir, recs
}

// sampleRegistry is a registry holding sampleCSV, the fixture's dataset.
func sampleRegistry(t *testing.T) (*registry.Registry, registry.Hash) {
	t.Helper()
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	return reg, entry.Hash
}

func TestRecoverReplaysV2Log(t *testing.T) {
	dir, _ := stageV2Fixture(t)
	e, n := recoveredEngine(t, dir)
	if n != 2 {
		t.Fatalf("Recover returned %d jobs from the v2 fixture, want 2", n)
	}
	done, ok := e.Get("v2-done")
	if !ok {
		t.Fatal("v2 done job not recovered")
	}
	st := done.Snapshot()
	if st.State != StateDone || !st.Recovered || st.Kind != KindAnalysis {
		t.Fatalf("v2 done job status = %+v, want a done+recovered analysis", st)
	}
	if !done.Recomputable() || st.Spec.TopK != 5 || len(st.Spec.Metrics) != 2 {
		t.Errorf("v2 done job spec = %+v (recomputable %v), want the logged spec", st.Spec, done.Recomputable())
	}
	if sum := done.Summary(); sum == nil || sum.Patterns != 8 || len(sum.Metrics) != 2 {
		t.Errorf("v2 summary = %+v, want the durable digest from the log", sum)
	}
	if snap := done.Partial(); snap == nil || snap.Seq != 1 {
		t.Errorf("v2 partial snapshot = %+v, want reattached with seq 1", snap)
	}
	failed, ok := e.Get("v2-failed")
	if !ok {
		t.Fatal("v2 failed job not recovered")
	}
	if fst := failed.Snapshot(); fst.State != StateFailed || fst.Err == "" || fst.Kind != KindAnalysis {
		t.Errorf("v2 failed job status = %+v, want a failed analysis with its recorded error", fst)
	}
}

// TestV2LogRehydratesByteIdentical re-mines the fixture's done job and
// checks the result digests to exactly the bytes the v2 process logged.
func TestV2LogRehydratesByteIdentical(t *testing.T) {
	dir, recs := stageV2Fixture(t)
	var logged *Record
	for i := range recs {
		if recs[i].Job == "v2-done" && recs[i].Type == RecDone {
			logged = &recs[i]
		}
	}
	reg, h := sampleRegistry(t)
	if logged == nil || logged.Spec.Dataset != h {
		t.Fatalf("fixture done record = %+v, want one over sampleCSV (%s)", logged, h)
	}
	e, _ := recoveredEngineWith(t, dir, reg)
	job, _ := e.Get("v2-done")
	res, err := e.Rehydrate(context.Background(), job)
	if err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	got, err := json.Marshal(summarize(res, *logged.Spec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(logged.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rehydrated digest differs from the logged one:\n got %s\nwant %s", got, want)
	}
	if s := e.Stats(); s.Rehydrated != 1 {
		t.Errorf("rehydrated = %d, want 1", s.Rehydrated)
	}
}

// TestV2LogUpgradesInPlace recovers the v2 log, runs an analysis and an
// explore job through the same store, and asserts the mixed-version log
// replays again: old records stay v2, new ones are v3 — the analysis in
// the v2 layout, the explore job with its kind and outcome.
func TestV2LogUpgradesInPlace(t *testing.T) {
	dir, _ := stageV2Fixture(t)
	reg, h := sampleRegistry(t)
	e, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(dir); err != nil {
		t.Fatal(err)
	}
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st := openTestStore(t, dir)
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, rec := range st.Replay() {
		switch rec.Job {
		case "v2-done", "v2-failed":
			if rec.V != 2 {
				t.Errorf("fixture record rewritten: %+v", rec)
			}
		case analysis.ID():
			if rec.V != storeVersion || rec.Kind != "" {
				t.Errorf("new analysis record = %+v, want v%d without a kind", rec, storeVersion)
			}
		case explore.ID():
			// Submitted and done records name the kind; running and
			// snapshot records name only the job.
			opens := rec.Type == RecSubmitted || rec.Type == RecDone
			if rec.V != storeVersion || opens != (rec.Kind == KindExplore) {
				t.Errorf("new explore record = %+v, want v%d, of kind explore iff submitted or done", rec, storeVersion)
			}
			if rec.Type == RecDone && rec.Outcome == nil {
				t.Error("explore done record carries no outcome")
			}
		}
	}

	e2, n := recoveredEngineWith(t, dir, registry.New(0))
	if n != 4 {
		t.Fatalf("recovered %d jobs from the upgraded log, want 4", n)
	}
	job, _ := e2.Get(explore.ID())
	want, _ := explore.Explore()
	if got, err := job.Explore(); err != nil || got.Reason != want.Reason || len(got.Top) != len(want.Top) {
		t.Errorf("explore job after upgrade = %+v (%v), want %+v", got, err, want)
	}
}
