package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/cspec"
	"hjdes/internal/obs"
	"hjdes/internal/partition"
)

// workload is one row of the README's workload table. The reason each is
// here is recorded there and in BENCHMARK.json.
type workload struct {
	name    string
	engine  string // registry name; "" for the service workload
	circuit string
	waves   int
	// partitions is Options.Partitions for lp-hj.
	partitions int
}

var workloads = []workload{
	{name: "seq-ks64", engine: "seq", circuit: "koggestone-64", waves: 50},
	{name: "hj-ks64", engine: "hj", circuit: "koggestone-64", waves: 50},
	{name: "hj-mult12", engine: "hj", circuit: "mult-12", waves: 2},
	{name: "lphj-ks64-k64", engine: "lp-hj", circuit: "koggestone-64", waves: 50, partitions: 64},
	{name: "twhj-ks64", engine: "tw-hj", circuit: "koggestone-64", waves: 3},
	{name: "serve-small", circuit: "koggestone-16", waves: 4},
}

// planK is the K the workload's engine partitions the circuit at: its LP
// count for lp-hj, one home per worker for hj's affinity plan, and 0 for
// engines (and the service's seq jobs) that do not partition.
func (w workload) planK() int {
	switch {
	case w.partitions > 0:
		return w.partitions
	case w.engine == "hj":
		return numWorkers()
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// numWorkers is W: the worker count of every parallel engine and the
// client count of the service workload.
func numWorkers() int { return min(runtime.NumCPU(), 4) }

// config is one run's settings. The command line fixes setupReps and
// warmups; the tests shrink them.
type config struct {
	seed       int64
	seconds    float64
	outDir     string // where the traced pass writes trace-<workload>.json
	skewOracle int64  // added to the oracle's event count, to show the gate trips
	setupReps  int    // timed pass: set up this many times, report the median
	warmups    int    // untimed ops at the end of every set-up
}

// share is the given fraction of the run's measuring time.
func (c config) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// opResult is one op as the client saw it, plus what the program itself
// reported about it (the layer detail the traced pass aggregates).
type opResult struct {
	end     time.Time
	dur     time.Duration
	events  int64
	failed  bool
	why     string      // what failed
	engineS float64     // Result.Elapsed / JobResult.ElapsedMS
	metrics obs.Metrics // Result.Metrics
	// service workload only
	submitS, queuedS, runS, pollLagS float64
	rejected                         bool
}

// instance is a workload set up and warmed, ready for ops.
type instance interface {
	clients() int
	// op runs the id-th op on the given client and records its spans
	// under parent.
	op(tr *tracer, parent, client, id int) opResult
	// traced returns a variant whose engine runs with the flight recorder
	// and a metrics registry attached, and a function that reports how
	// many events the recorder holds.
	traced() (instance, func() int)
	// layers stores the workload's per-layer metrics in vals, from the
	// span-recorded ops and their wall time; it may run further probes
	// under parent.
	layers(tr *tracer, parent int, ops []opResult, wall time.Duration, vals map[string]float64)
	close()
}

// setupInfo is what set-up learned that the layer metrics report.
type setupInfo struct {
	vals     map[string]float64 // circuit.*, partition.*, core.engine_new_s
	verified bool               // the verification op matched the oracle
	why      string             // first mismatch, when not verified
}

// opTimeout bounds one op so a wedged engine fails the op instead of
// hanging the benchmark.
const opTimeout = 60 * time.Second

// engineInstance runs ops of one engine on one circuit and stimulus
// through core.Resilient with zero retries — the call dessim makes.
type engineInstance struct {
	w      workload
	c      *circuit.Circuit
	stim   *circuit.Stimulus
	opts   core.Options
	eng    core.Engine
	oracle int64 // the seq oracle's event count
}

func (e *engineInstance) clients() int { return 1 }
func (e *engineInstance) close()       {}

// resilientCfg is the envelope of every op: zero retries, no fallback.
func resilientCfg(opts core.Options) core.ResilientConfig {
	return core.ResilientConfig{Supervise: core.SuperviseConfig{Timeout: opTimeout}, Options: opts}
}

func (e *engineInstance) op(tr *tracer, parent, client, id int) opResult {
	opSpan := tr.begin("op", parent, id, 0)
	resSpan := tr.begin("core.resilient", opSpan, id, 0)
	start := time.Now()
	res, err := core.Resilient(context.Background(), e.eng, e.c, e.stim, resilientCfg(e.opts))
	end := time.Now()
	tr.end(resSpan)
	r := opResult{end: end, dur: end.Sub(start)}
	if err != nil {
		r.failed, r.why = true, err.Error()
	} else {
		// The engine's own wall time, placed at the end of the envelope
		// that returned it.
		tr.add("core.run", resSpan, id, 0, end.Add(-res.Elapsed), end)
		r.events, r.engineS, r.metrics = res.TotalEvents, res.Elapsed.Seconds(), res.Metrics
		if res.TotalEvents != e.oracle {
			r.failed, r.why = true, fmt.Sprintf("%d events, the seq oracle counted %d", res.TotalEvents, e.oracle)
		}
	}
	tr.end(opSpan)
	return r
}

func (e *engineInstance) traced() (instance, func() int) {
	rec := obs.NewRecorder(0)
	t := *e
	t.opts.Trace, t.opts.Metrics = rec, obs.NewRegistry(0)
	t.eng, _ = core.NewEngine(e.w.engine, t.opts) // the name resolved in set-up
	return &t, func() int { return len(rec.Events()) }
}

// runSeq runs the seq yardstick once on the instance's inputs.
func runSeq(c *circuit.Circuit, stim *circuit.Stimulus, discard bool) (*core.Result, error) {
	return core.NewSequential(core.Options{DiscardOutputs: discard}).Run(c, stim)
}

// circuitFacts records the exact counts of the generated inputs.
func circuitFacts(vals map[string]float64, c *circuit.Circuit, stim *circuit.Stimulus) {
	vals["circuit.nodes"] = float64(c.NumNodes())
	vals["circuit.edges"] = float64(c.NumEdges())
	vals["circuit.depth"] = float64(c.Depth())
	vals["circuit.initial_events"] = float64(stim.NumEvents())
}

// probePlan times partition.Partition at the workload's K. It is a probe:
// only the traced pass runs it, so set-up time is not charged for a plan
// the engine computes again (and memoizes) in its first warm-up op.
func probePlan(tr *tracer, parent int, w workload, c *circuit.Circuit, vals map[string]float64) error {
	k := w.planK()
	if tr == nil || k == 0 {
		return nil
	}
	var plan *partition.Plan
	var err error
	d := tr.timed("partition.plan", parent, func(int) { plan, err = partition.Partition(c, k) })
	if err != nil {
		return err
	}
	vals["partition.plan_s"] = d.Seconds()
	vals["partition.edge_cut_fraction"] = plan.EdgeCutFraction()
	vals["partition.load_balance"] = plan.LoadBalance()
	return nil
}

// setup builds the workload from the seed, checks it against the seq
// oracle and warms it. Everything a user pays before the first op is in
// here, so work moved out of the ops shows up in setup_s.
func (w workload) setup(cfg config, tr *tracer, parent int) (instance, setupInfo, error) {
	if w.engine == "" {
		return setupServe(w, cfg, tr, parent)
	}
	info := setupInfo{vals: make(map[string]float64)}
	var err error
	e := &engineInstance{w: w}

	info.vals["circuit.build_s"] = tr.timed("circuit.build", parent, func(int) { e.c, err = cspec.Build(w.circuit) }).Seconds()
	if err != nil {
		return nil, info, err
	}
	info.vals["circuit.stimulus_s"] = tr.timed("circuit.stimulus", parent, func(int) {
		e.stim = circuit.RandomStimulus(e.c, w.waves, e.c.SettleTime()+10, cfg.seed)
	}).Seconds()
	circuitFacts(info.vals, e.c, e.stim)
	if err := probePlan(tr, parent, w, e.c, info.vals); err != nil {
		return nil, info, err
	}

	var oracle *core.Result
	tr.timed("core.seq_ref", parent, func(int) { oracle, err = runSeq(e.c, e.stim, false) })
	if err != nil {
		return nil, info, fmt.Errorf("seq oracle: %w", err)
	}
	e.oracle = oracle.TotalEvents + cfg.skewOracle

	e.opts = core.Options{Workers: numWorkers(), Partitions: w.partitions, DiscardOutputs: true}
	info.vals["core.engine_new_s"] = tr.timed("core.engine_new", parent, func(int) { e.eng, err = core.NewEngine(w.engine, e.opts) }).Seconds()
	if err != nil {
		return nil, info, err
	}

	// One op with outputs recorded must agree with the oracle on every
	// settled output value.
	tr.timed("verify", parent, func(int) {
		vopts := e.opts
		vopts.DiscardOutputs = false
		veng, _ := core.NewEngine(w.engine, vopts)
		var res *core.Result
		if res, err = core.Resilient(context.Background(), veng, e.c, e.stim, resilientCfg(vopts)); err == nil {
			info.verified, info.why = core.SameOutputs(oracle, res)
		}
	})
	if err != nil {
		return nil, info, fmt.Errorf("verification op: %w", err)
	}

	tr.timed("warmup", parent, func(id int) {
		for i := 0; i < cfg.warmups; i++ {
			e.op(nil, 0, 0, -1)
		}
	})
	return e, info, nil
}

// runOps runs ops on every client of inst until d has passed. It returns
// them in the order they ended, with the time the first one started. Op
// ids start at firstID.
func runOps(inst instance, d time.Duration, tr *tracer, parent, firstID int) ([]opResult, time.Time) {
	n := inst.clients()
	perClient := make([][]opResult, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				perClient[c] = append(perClient[c], inst.op(tr, parent, c, firstID+c+k*n))
			}
		}(c)
	}
	wg.Wait()
	var all []opResult
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	return all, start
}

// timedWindows is how many consecutive groups the timed ops are cut into.
// Throughput and the 90th percentile are taken per group and the median
// group is reported, so a burst of host noise that lands in one or two
// groups does not move them.
const timedWindows = 5

// windowStats cuts ops (in end order, the first started at start) into
// groups of equal size and returns each group's committed events per
// second and its op-time 90th percentile.
func windowStats(ops []opResult, start time.Time) (eventsPerS, p90 []float64) {
	n := min(timedWindows, len(ops))
	from := start
	for w := 0; w < n; w++ {
		group := ops[w*len(ops)/n : (w+1)*len(ops)/n]
		var events int64
		for _, r := range group {
			if !r.failed {
				events += r.events
			}
		}
		to := group[len(group)-1].end
		eventsPerS = append(eventsPerS, float64(events)/to.Sub(from).Seconds())
		p90 = append(p90, percentile(opSeconds(group), 0.9))
		from = to
	}
	return eventsPerS, p90
}

func opSeconds(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.dur.Seconds()
	}
	return out
}

// countFailed counts the failed ops and reports the first one's reason.
func countFailed(rs []opResult) int {
	n := 0
	for i, r := range rs {
		if r.failed {
			if n == 0 {
				fmt.Fprintf(os.Stderr, "benchmark: op %d failed: %s\n", i, r.why)
			}
			n++
		}
	}
	return n
}
