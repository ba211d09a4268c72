package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/serve"
)

// The service workload: an in-process serve.Server behind httptest, W
// closed-loop clients, each waiting for its job before sending the next.
// Jobs are ~1 ms of simulation, so submit→done is mostly the envelope
// around the engine.

// serveEngines is the engine rotation of the jobs. The issue asked for
// seq, hj and lp-hj; with hj or lp-hj jobs on the server's pooled runtimes,
// 2 of 26 fifteen-second runs died of a nil dereference in
// hj.(*worker).execute (README, "Failures seen while sizing"), and the
// benchmark may change nothing outside its directory. Until internal/hj is
// fixed the rotation is seq alone, which leaves RuntimePool checkout and
// per-job partitioning out of the envelope this workload measures.
var serveEngines = []string{"seq"}

const (
	serveSeeds   = 8
	servePoll    = time.Millisecond
	serveTimeout = 30 * time.Second // submit→done budget of one job
)

type serveInstance struct {
	w       workload
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	seeds   [serveSeeds]int64
	oracle  [serveSeeds]int64 // the seq oracle's event count per seed
	traceOn bool              // submit jobs with "trace": true
}

func (s *serveInstance) clients() int { return numWorkers() }

func (s *serveInstance) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain()
}

func (s *serveInstance) traced() (instance, func() int) {
	t := *s
	t.traceOn = true
	return &t, func() int { return 0 } // job recorders are the server's, not read here
}

// op submits one job and polls until it is terminal.
func (s *serveInstance) op(tr *tracer, parent, client, id int) opResult {
	opSpan := tr.begin("op", parent, id, client+1)
	start := time.Now()
	r := s.job(tr, opSpan, client+1, id, start)
	r.end = time.Now()
	r.dur = r.end.Sub(start)
	tr.end(opSpan)
	return r
}

// job is op's body; it returns a failed result unless the job was
// admitted, reached "done" and processed the oracle's event count.
func (s *serveInstance) job(tr *tracer, opSpan, tid, id int, start time.Time) opResult {
	k := max(id, 0)
	spec := serve.JobSpec{
		Circuit: s.w.circuit,
		Engine:  serveEngines[k%len(serveEngines)],
		Waves:   s.w.waves,
		Seed:    s.seeds[k%serveSeeds],
		Trace:   s.traceOn,
	}
	body, _ := json.Marshal(spec) // a struct of plain fields cannot fail to encode
	r := opResult{failed: true}
	fail := func(format string, args ...any) opResult {
		r.why = fmt.Sprintf(format, args...)
		return r
	}

	resp, err := s.client.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("POST /jobs: %v", err)
	}
	var admitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	resp.Body.Close()
	posted := time.Now()
	r.submitS = posted.Sub(start).Seconds()
	tr.add("serve.submit", opSpan, id, tid, start, posted)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		r.rejected = resp.StatusCode == http.StatusTooManyRequests
		return fail("POST /jobs: status %d, body error %v", resp.StatusCode, err)
	}

	var view serve.JobView
	for {
		resp, err := s.client.Get(s.ts.URL + "/jobs/" + admitted.ID)
		if err != nil {
			return fail("GET /jobs/%s: %v", admitted.ID, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fail("GET /jobs/%s: status %d, body error %v", admitted.ID, resp.StatusCode, err)
		}
		if view.Status != serve.StatusQueued && view.Status != serve.StatusRunning {
			break
		}
		if time.Since(start) > serveTimeout {
			return fail("job %s still %s after %v", admitted.ID, view.Status, serveTimeout)
		}
		time.Sleep(servePoll)
	}
	seen := time.Now()
	if view.Status != serve.StatusDone || view.Result == nil {
		return fail("job %s ended %s: %s", admitted.ID, view.Status, view.Error)
	}

	// The server's own account of the job, on the server's clock (the
	// same clock: it runs in this process). The server may start a job
	// before its POST has returned; the spans are laid end to end from
	// the POST's return so that they never overlap, while the metrics
	// keep the server's figures.
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	started := view.SubmittedAt.Add(ms(view.QueuedMS))
	finished := started.Add(ms(view.RunMS))
	cursor := posted
	seq := func(name string, parent int, from, to time.Time) int {
		if from.Before(cursor) {
			from = cursor
		}
		if to.Before(from) {
			to = from
		}
		cursor = to
		return tr.add(name, parent, id, tid, from, to)
	}
	seq("serve.queued", opSpan, view.SubmittedAt, started)
	runSpan := seq("serve.run", opSpan, started, finished)
	tr.add("serve.engine", runSpan, id, tid, finished.Add(-ms(view.Result.ElapsedMS)), finished)
	seq("serve.poll_lag", opSpan, finished, seen)

	r.queuedS, r.runS = view.QueuedMS/1e3, view.RunMS/1e3
	r.engineS = view.Result.ElapsedMS / 1e3
	r.pollLagS = seen.Sub(finished).Seconds()
	r.events = view.Result.Events
	if want := s.oracle[k%serveSeeds]; r.events != want {
		return fail("job %s: %d events, the seq oracle counted %d", admitted.ID, r.events, want)
	}
	r.failed = false
	return r
}

func setupServe(w workload, cfg config, tr *tracer, parent int) (instance, setupInfo, error) {
	info := setupInfo{vals: make(map[string]float64), verified: true}
	s := &serveInstance{w: w}
	var c *circuit.Circuit
	var err error
	info.vals["circuit.build_s"] = tr.timed("circuit.build", parent, func(int) { c, err = cspec.Build(w.circuit) }).Seconds()
	if err != nil {
		return nil, info, err
	}
	var stims [serveSeeds]*circuit.Stimulus
	info.vals["circuit.stimulus_s"] = tr.timed("circuit.stimulus", parent, func(int) {
		for i := range stims {
			s.seeds[i] = cfg.seed*serveSeeds + int64(i) + 1 // never 0: the server reads 0 as "default"
			stims[i] = circuit.RandomStimulus(c, w.waves, c.SettleTime()+10, s.seeds[i])
		}
	}).Seconds() / serveSeeds
	circuitFacts(info.vals, c, stims[0])
	if err := probePlan(tr, parent, w, c, info.vals); err != nil {
		return nil, info, err
	}

	var oracle0 *core.Result
	tr.timed("core.seq_ref", parent, func(int) {
		for i, stim := range stims {
			var res *core.Result
			if res, err = runSeq(c, stim, false); err != nil {
				return
			}
			if i == 0 {
				oracle0 = res
			}
			s.oracle[i] = res.TotalEvents + cfg.skewOracle
		}
	})
	if err != nil {
		return nil, info, fmt.Errorf("seq oracle: %w", err)
	}

	// The service discards outputs, so the engines it will run are
	// checked against the oracle directly, as the server would call them.
	tr.timed("verify", parent, func(int) {
		for _, name := range serveEngines {
			eng, _ := core.NewEngine(name, core.Options{})
			var res *core.Result
			res, err = core.Resilient(context.Background(), eng, c, stims[0], resilientCfg(core.Options{}))
			if err != nil {
				return
			}
			if ok, why := core.SameOutputs(oracle0, res); !ok && info.verified {
				info.verified, info.why = false, name+": "+why
			}
		}
	})
	if err != nil {
		return nil, info, fmt.Errorf("verification op: %w", err)
	}

	tr.timed("serve.start", parent, func(int) {
		s.srv = serve.New(serve.Config{})
		s.ts = httptest.NewServer(s.srv.Handler())
		// One kept-alive connection per client, so no op pays a dial.
		s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients()}}
	})
	tr.timed("warmup", parent, func(int) {
		for i := 0; i < cfg.warmups*len(serveEngines)*s.clients(); i++ {
			s.op(nil, 0, i%s.clients(), i)
		}
	})
	return s, info, nil
}
