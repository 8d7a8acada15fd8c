// Explore and significance jobs end to end: one result body, byte for
// byte, live, after a restart and on the replica that adopts the job
// when its owner dies; and async submissions go through admission like
// POST /jobs does.

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// asyncJob submits an "async": true body to path and waits for the job
// to finish, returning its ID and its result bytes.
func asyncJob(t *testing.T, h http.Handler, path, body, kind string) (string, []byte) {
	t.Helper()
	w := do(t, h, http.MethodPost, path, body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST %s = %d: %s", path, w.Code, w.Body.String())
	}
	j := decode[jobJSON](t, w)
	if j.Kind != kind {
		t.Fatalf("submitted job kind = %q, want %q", j.Kind, kind)
	}
	if st := pollJob(t, h, j.ID); st.State != "done" || st.Kind != kind {
		t.Fatalf("%s job = %+v, want a done %s job", kind, st, kind)
	}
	w = do(t, h, http.MethodGet, "/jobs/"+j.ID+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s result = %d: %s", kind, w.Code, w.Body.String())
	}
	return j.ID, append([]byte(nil), w.Body.Bytes()...)
}

// TestRestartServesExploreAndSignificanceResults: a budget-cut async
// explore job and a seeded Westfall–Young significance job serve the
// same result bytes after a crash and restart — with the dataset never
// re-uploaded, so the outcome came from the WAL, not a re-run.
func TestRestartServesExploreAndSignificanceResults(t *testing.T) {
	dir := t.TempDir()
	h1, _ := durableServer(t, dir, registry.New(0))
	hash := decode[datasetJSON](t, do(t, h1, http.MethodPost, "/datasets", sampleCSV)).Hash

	bodies := map[string]string{
		"explore": fmt.Sprintf(`{"dataset":%q,"async":true,"metric":"FPR","max_patterns":3}`, hash),
		"significance": fmt.Sprintf(`{"dataset":%q,"async":true,"support":0.1,"metric":"FPR",`+
			`"method":"wy","permutations":100,"seed":4,"alpha":0.2}`, hash),
	}
	before := make(map[string][]byte)
	ids := make(map[string]string)
	for kind, body := range bodies {
		ids[kind], before[kind] = asyncJob(t, h1, "/"+kind, body, kind)
	}
	if !bytes.Contains(before["explore"], []byte(`"reason": "budget"`)) {
		t.Fatalf("explore outcome is not budget-cut: %s", before["explore"])
	}

	h2, n := durableServer(t, snapshotWAL(t, dir), registry.New(0))
	if n != len(bodies) {
		t.Fatalf("recovered %d jobs, want %d", n, len(bodies))
	}
	for kind, id := range ids {
		st := decode[jobJSON](t, do(t, h2, http.MethodGet, "/jobs/"+id, ""))
		if st.Kind != kind || st.State != "done" || !st.Recovered || st.Dataset != hash {
			t.Errorf("recovered %s job status = %+v", kind, st)
		}
		w := do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), before[kind]) {
			t.Errorf("post-restart %s result = %d:\n%s\nwant the pre-crash bytes:\n%s",
				kind, w.Code, w.Body.Bytes(), before[kind])
		}
	}
	stats := decode[statszJSON](t, do(t, h2, http.MethodGet, "/statsz", ""))
	if stats.Jobs.Rehydrated != 0 || stats.Jobs.Explore.Mines != 0 || stats.Jobs.Significance.Runs != 0 {
		t.Errorf("restart recomputed: rehydrated %d, explore mines %d, significance runs %d",
			stats.Jobs.Rehydrated, stats.Jobs.Explore.Mines, stats.Jobs.Significance.Runs)
	}
}

// TestAsyncExploreAndSignificanceAdmission: async explore and
// significance submissions are charged to the X-Tenant tenant. At its
// active-job cap the tenant gets 429 with Retry-After, and the grant of
// an admitted async job is released when the job finishes.
func TestAsyncExploreAndSignificanceAdmission(t *testing.T) {
	reg := registry.New(0)
	release := make(chan struct{})
	engine, err := jobs.New(jobs.Config{Registry: reg, Workers: 2, Analyze: gatedAnalyze(release)})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := admission.NewController(admission.Limits{},
		map[string]admission.Limits{"greedy": {MaxActive: 1}}, nil)
	h := newTestServer(t, Options{Registry: reg, Engine: engine, Admission: ctrl}).Handler()
	hash := decode[datasetJSON](t, do(t, h, http.MethodPost, "/datasets", sampleCSV)).Hash

	// A gated analysis holds greedy's only slot.
	w := doTenant(t, h, http.MethodPost, "/jobs?dataset="+hash, "", "greedy")
	if w.Code != http.StatusAccepted {
		t.Fatalf("analysis submit = %d: %s", w.Code, w.Body.String())
	}
	held := decode[jobJSON](t, w).ID
	bodies := map[string]string{
		"/explore":      fmt.Sprintf(`{"dataset":%q,"async":true}`, hash),
		"/significance": fmt.Sprintf(`{"dataset":%q,"async":true,"method":"bh"}`, hash),
	}
	for path, body := range bodies {
		w := doTenant(t, h, http.MethodPost, path, body, "greedy")
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
			t.Errorf("over-quota async %s = %d (Retry-After %q): %s",
				path, w.Code, w.Header().Get("Retry-After"), w.Body.String())
		}
		w = doTenant(t, h, http.MethodPost, path, body, "polite")
		if w.Code != http.StatusAccepted {
			t.Fatalf("other tenant's async %s = %d: %s", path, w.Code, w.Body.String())
		}
		// The job carries its tenant, which the fair queue files it under.
		if job, _ := engine.Get(decode[jobJSON](t, w).ID); job.Spec().Tenant != "polite" {
			t.Errorf("async %s job tenant = %q, want polite", path, job.Spec().Tenant)
		}
	}
	close(release)
	pollJob(t, h, held)

	// Each admitted async job releases the slot when it finishes, so the
	// next one is admitted too.
	for _, path := range []string{"/explore", "/significance", "/explore"} {
		var w *httptest.ResponseRecorder
		waitUntil(t, 5*time.Second, "greedy admitted once its previous job finished", func() bool {
			w = doTenant(t, h, http.MethodPost, path, bodies[path], "greedy")
			return w.Code == http.StatusAccepted
		})
		if st := pollJob(t, h, decode[jobJSON](t, w).ID); st.State != "done" {
			t.Fatalf("greedy async %s job = %+v", path, st)
		}
	}
}

// TestClusterAdoptsDoneExploreJob: a finished async explore job on the
// dataset's primary owner replicates its done record; when the primary
// dies the secondary adopts it and serves the same result bytes, kind
// intact.
func TestClusterAdoptsDoneExploreJob(t *testing.T) {
	env := newClusterEnv(t, 31, envConfig{heartbeat: 10 * time.Millisecond}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	primary, secondary := owners[0], owners[1]

	if w := do(t, env.handlers[primary], http.MethodPost, "/datasets", sampleCSV); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	id, before := asyncJob(t, env.handlers[primary], "/explore",
		fmt.Sprintf(`{"dataset":%q,"async":true,"metric":"FNR","max_patterns":4}`, hash), "explore")
	waitUntil(t, 10*time.Second, "done record on the replica", func() bool {
		return env.nodes[secondary].Stats().HandoffRecords >= 1
	})

	env.net.Kill(primary)
	waitUntil(t, 15*time.Second, "death detection and adoption", func() bool {
		return env.nodes[secondary].Stats().Adoptions >= 1
	})
	st := decode[jobJSON](t, do(t, env.handlers[secondary], http.MethodGet, "/jobs/"+id, ""))
	if st.Kind != "explore" || st.State != "done" || !st.Recovered {
		t.Fatalf("adopted job status = %+v, want a done explore job", st)
	}
	w := do(t, env.handlers[secondary], http.MethodGet, "/jobs/"+id+"/result", "")
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), before) {
		t.Errorf("adopted result = %d:\n%s\nwant the owner's bytes:\n%s", w.Code, w.Body.Bytes(), before)
	}
}
