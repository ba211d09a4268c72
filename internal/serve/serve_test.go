package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// postJob submits a spec through the HTTP layer and returns the response.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitOK(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var eb errBody
		json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, eb.Error)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// waitJob polls until the job leaves queued/running or the deadline hits.
func waitJob(t *testing.T, ts *httptest.Server, id string, deadline time.Duration) JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusQueued && v.Status != StatusRunning {
			return v
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s stuck in %q after %v", id, v.Status, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) MetricsView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mv MetricsView
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	return mv
}

// TestServeJobsAcrossEngines drives one job through each engine family
// over HTTP and checks results, job listing, and the admission counters.
func TestServeJobsAcrossEngines(t *testing.T) {
	s := New(Config{QueueCap: 16, Concurrency: 4})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	engines := []string{"seq", "hj", "lp-hj", "galois", "actor", "timewarp"}
	ids := make(map[string]string, len(engines))
	for _, eng := range engines {
		ids[eng] = submitOK(t, ts, JobSpec{Circuit: "koggestone-16", Engine: eng, Waves: 4, Seed: 9, Workers: 2})
	}
	var ref int64 = -1
	for eng, id := range ids {
		v := waitJob(t, ts, id, 30*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("%s job %s: status %q (err %q)", eng, id, v.Status, v.Error)
		}
		if v.Result == nil || v.Result.Events <= 0 {
			t.Fatalf("%s job %s: no events in result", eng, id)
		}
		// All engines simulate the same circuit+stimulus: same events.
		if ref == -1 {
			ref = v.Result.Events
		} else if v.Result.Events != ref {
			t.Fatalf("%s job processed %d events, other engines %d", eng, v.Result.Events, ref)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobView
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != len(engines) {
		t.Fatalf("GET /jobs listed %d jobs, want %d", len(all), len(engines))
	}

	mv := fetchMetrics(t, ts)
	if got := mv.Counters["serve.admitted"]; got != int64(len(engines)) {
		t.Fatalf("serve.admitted = %d, want %d", got, len(engines))
	}
	if got := mv.Counters["serve.completed"]; got != int64(len(engines)) {
		t.Fatalf("serve.completed = %d, want %d", got, len(engines))
	}
	if mv.Service.QueueCap != 16 {
		t.Fatalf("queue_cap = %d, want 16", mv.Service.QueueCap)
	}
}

// TestServeMetricsMergeCorrectness is the satellite-4 contract at the
// service level: with every job folding into ONE shared registry, the
// merged "events" counter equals the sum of the per-job event counts.
func TestServeMetricsMergeCorrectness(t *testing.T) {
	s := New(Config{QueueCap: 64, Concurrency: 4})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 24
	ids := make([]string, 0, jobs)
	engines := []string{"seq", "hj", "lp-hj"}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := submitOK(t, ts, JobSpec{
				Circuit: "koggestone-16",
				Engine:  engines[i%len(engines)],
				Waves:   3 + i%4,
				Seed:    int64(i + 1),
				Workers: 2,
			})
			mu.Lock()
			ids = append(ids, id)
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	var sum int64
	for _, id := range ids {
		v := waitJob(t, ts, id, 60*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("job %s: %q (%s)", id, v.Status, v.Error)
		}
		sum += v.Result.Events
	}
	mv := fetchMetrics(t, ts)
	if got := mv.Counters["events"]; got != sum {
		t.Fatalf("registry events = %d, sum of per-job events = %d: per-job metrics lost in the merge", got, sum)
	}
}

// TestServeBackpressure forces the queue full and requires a hard 429
// with a Retry-After hint — never a blocked POST — and admission again
// once the clog clears.
func TestServeBackpressure(t *testing.T) {
	s := New(Config{QueueCap: 1, Concurrency: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One slow-ish job occupies the single executor; one more fills the
	// queue. Submissions race the executor draining the queue, so keep
	// posting until the full condition is observed.
	slow := JobSpec{Circuit: "koggestone-32", Engine: "seq", Waves: 300, Seed: 1}
	var accepted []string
	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		resp := postJob(t, ts, slow)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			accepted = append(accepted, out.ID)
		case http.StatusTooManyRequests:
			saw429 = true
			ra := resp.Header.Get("Retry-After")
			if ra == "" {
				t.Fatal("429 without Retry-After")
			}
			if n, err := strconv.Atoi(ra); err != nil || n < 1 {
				t.Fatalf("Retry-After %q not a positive integer of seconds", ra)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("queue never reported full: backpressure path untested")
	}
	if len(accepted) < 2 {
		t.Fatalf("expected >= 2 accepted before the 429, got %d", len(accepted))
	}
	// Every accepted job still completes: rejection sheds load, it does
	// not corrupt admitted work.
	for _, id := range accepted {
		if v := waitJob(t, ts, id, 60*time.Second); v.Status != StatusDone {
			t.Fatalf("accepted job %s: %q (%s)", id, v.Status, v.Error)
		}
	}
	if got := fetchMetrics(t, ts).Counters["serve.rejected"]; got < 1 {
		t.Fatalf("serve.rejected = %d, want >= 1", got)
	}
}

// TestServePoolReuse pins the steady-state contract: same-shape hj jobs
// run back to back construct exactly one runtime and leak no goroutines
// between jobs.
func TestServePoolReuse(t *testing.T) {
	s := New(Config{QueueCap: 8, Concurrency: 1}) // serial: one runtime shape
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Circuit: "koggestone-16", Engine: "hj", Waves: 4, Seed: 3, Workers: 2}
	warm := submitOK(t, ts, spec)
	if v := waitJob(t, ts, warm, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("warmup: %q (%s)", v.Status, v.Error)
	}
	base := runtime.NumGoroutine()

	const n = 6
	for i := 0; i < n; i++ {
		id := submitOK(t, ts, spec)
		if v := waitJob(t, ts, id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("job %d: %q (%s)", i, v.Status, v.Error)
		}
	}
	ps := s.PoolStats()
	if ps.Created != 1 {
		t.Fatalf("pool created %d runtimes for %d same-shape jobs, want 1", ps.Created, n+1)
	}
	if ps.Reused != n {
		t.Fatalf("pool reused %d times, want %d", ps.Reused, n)
	}
	if ps.Discarded != 0 {
		t.Fatalf("healthy runtimes discarded: %d", ps.Discarded)
	}
	// Zero goroutine leak between jobs: allow slack only for transient
	// HTTP-connection goroutines, not a per-job worker set.
	if now := runtime.NumGoroutine(); now > base+3 {
		t.Fatalf("goroutines grew %d -> %d across %d pooled jobs", base, now, n)
	}
}

// TestServeDrainFinishesInFlight covers the happy drain: queued and
// running jobs complete inside the grace, the server stops admitting
// (503), and /healthz flips to draining.
func TestServeDrainFinishesInFlight(t *testing.T) {
	s := New(Config{QueueCap: 16, Concurrency: 2, DrainTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submitOK(t, ts, JobSpec{Circuit: "koggestone-16", Engine: "seq", Waves: 20, Seed: int64(i + 1)}))
	}
	s.Drain()

	resp := postJob(t, ts, JobSpec{Circuit: "koggestone-16", Engine: "seq"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", hresp.StatusCode)
	}

	for _, id := range ids {
		v, ok := s.Job(id)
		if !ok || v.Status != StatusDone {
			t.Fatalf("drained job %s: %+v", id, v)
		}
	}
}

// TestServeDrainInterruptsStragglers gives the drain a tiny grace so a
// long checkpointed job is cancelled mid-run: it must land in
// "interrupted" (not "failed"), promptly, with its checkpoint visible.
func TestServeDrainInterruptsStragglers(t *testing.T) {
	s := New(Config{QueueCap: 4, Concurrency: 1, DrainTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitOK(t, ts, JobSpec{
		Circuit:         "koggestone-32",
		Engine:          "seq",
		Waves:           20000,
		Seed:            2,
		CheckpointEvery: 1,
	})
	// Let it run until at least one checkpoint exists before pulling the
	// plug, so the interrupt has a resume point to report.
	stop := time.Now().Add(30 * time.Second)
	for {
		v, _ := s.Job(id)
		if v.Status == StatusRunning && v.Ckpt >= 1 {
			break
		}
		if v.Status != StatusQueued && v.Status != StatusRunning {
			t.Fatalf("job finished before the drain: %q (%s)", v.Status, v.Error)
		}
		if time.Now().After(stop) {
			t.Fatalf("job saved no checkpoint in time (status %q)", v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	s.Drain()
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("drain of a cancelled job took %v: cancellation not prompt", waited)
	}
	v, _ := s.Job(id)
	if v.Status != StatusInterrupted {
		t.Fatalf("straggler status %q (err %q), want %q", v.Status, v.Error, StatusInterrupted)
	}
	if v.Ckpt < 1 {
		t.Fatalf("interrupted checkpointed job saved %d checkpoints, want >= 1", v.Ckpt)
	}
	if v.CheckpointSeg < 1 {
		t.Fatalf("checkpoint_seg = %d, want >= 1 (resume point)", v.CheckpointSeg)
	}
	if got := fetchMetrics(t, ts).Counters["serve.interrupted"]; got != 1 {
		t.Fatalf("serve.interrupted = %d, want 1", got)
	}
}

// TestServeTraceEndpoint checks the per-job flight recorder round-trip:
// a traced job serves Chrome trace JSON, an untraced one a 409.
func TestServeTraceEndpoint(t *testing.T) {
	s := New(Config{QueueCap: 4, Concurrency: 2})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	traced := submitOK(t, ts, JobSpec{Circuit: "koggestone-16", Engine: "hj", Waves: 4, Seed: 5, Workers: 2, Trace: true})
	plain := submitOK(t, ts, JobSpec{Circuit: "koggestone-16", Engine: "hj", Waves: 4, Seed: 5, Workers: 2})
	for _, id := range []string{traced, plain} {
		if v := waitJob(t, ts, id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("job %s: %q (%s)", id, v.Status, v.Error)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/trace/" + traced)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	resp.Body.Close()
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traced hj job produced no trace events")
	}

	resp, err = ts.Client().Get(ts.URL + "/trace/" + plain)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of untraced job: status %d, want 409", resp.StatusCode)
	}
}

// TestServeBadSpecs exercises the admission validator end to end.
func TestServeBadSpecs(t *testing.T) {
	s := New(Config{QueueCap: 4, Concurrency: 1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []JobSpec{
		{},                                      // nothing
		{Circuit: "koggestone-16"},              // no engine
		{Circuit: "koggestone-16", Engine: "x"}, // unknown engine
		{Circuit: "nope-3", Engine: "seq"},      // unknown circuit
		{Circuit: "koggestone-16", Engine: "seq", Fallback: []string{"bogus"}},
		{Circuit: "koggestone-16", Engine: "seq", Waves: maxWaves + 1},
		{Circuit: "koggestone-16", Engine: "seq", Workers: -1},
		{Circuit: "koggestone-16", Engine: "seq", Retries: 99},
	}
	for i, spec := range bad {
		resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %d: status %d, want 400", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if got := fetchMetrics(t, ts).Counters["serve.admitted"]; got != 0 {
		t.Fatalf("bad specs admitted %d jobs", got)
	}
}

// TestServeChaoticJobDegrades runs a chaos-injected hj job with a seq
// fallback through the service and expects a degraded success — the
// resilience envelope working end to end behind the API. The panic
// budget (maxpanics=2) is exhausted by the two hj attempts, so the seq
// fallback runs clean.
func TestServeChaoticJobDegrades(t *testing.T) {
	s := New(Config{QueueCap: 4, Concurrency: 2})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitOK(t, ts, JobSpec{
		Circuit:   "koggestone-16",
		Engine:    "hj",
		Waves:     6,
		Seed:      4,
		Workers:   2,
		Chaos:     "panic=1.0,maxpanics=2,seed=7",
		Retries:   1,
		Fallback:  []string{"seq"},
		TimeoutMS: 30000,
	})
	v := waitJob(t, ts, id, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("chaotic job: %q (%s)", v.Status, v.Error)
	}
	if !v.Result.Degraded || v.Result.Engine != "seq" {
		t.Fatalf("expected degraded seq result, got engine %q degraded=%v", v.Result.Engine, v.Result.Degraded)
	}
}

func TestServeSubmitSmallestJob(t *testing.T) {
	// The doc-example request must stay valid.
	s := New(Config{})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"circuit":"fulladder","engine":"seq"}`), &spec); err != nil {
		t.Fatal(err)
	}
	id := submitOK(t, ts, spec)
	if v := waitJob(t, ts, id, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("minimal job: %q (%s)", v.Status, v.Error)
	}
}
