package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hjdes/internal/core"
)

// runOutput is the one JSON object a run prints as its last line.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gate folds the verification op into the op counts: if the engine's
// outputs did not match the oracle's, no op of this run can be trusted.
func gate(ops []opResult, info setupInfo) (attempted, failed int) {
	attempted, failed = len(ops), countFailed(ops)
	if !info.verified {
		fmt.Fprintf(os.Stderr, "benchmark: verification op disagrees with the seq oracle: %s\n", info.why)
		failed = attempted
	}
	return attempted, failed
}

// timedPass measures the end-to-end metrics, with tracing off.
func timedPass(w workload, cfg config) (runOutput, error) {
	var inst instance
	var info setupInfo
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, info, err = w.setup(cfg, nil, 0); err != nil {
			return runOutput{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	// Start the timed phase from a collected heap; the collector itself
	// stays at its defaults, because users pay for it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, start := runOps(inst, cfg.share(1), nil, 0, 0)
	runtime.ReadMemStats(&after)

	n := float64(len(ops))
	eventsPerS, p90 := windowStats(ops, start)
	rss, err := peakRSSMB()
	if err != nil {
		return runOutput{}, err
	}
	attempted, failed := gate(ops, info)
	return runOutput{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: report(endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"events_per_s":  median(eventsPerS),
			"op_p50_s":      median(opSeconds(ops)),
			"op_p90_s":      median(p90),
			"allocs_per_op": float64(after.Mallocs-before.Mallocs) / n,
			"bytes_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / n,
			"peak_rss_mb":   rss,
		}),
	}, nil
}

// tracedPass measures the per-layer metrics. Spans are kept in memory
// and written to outDir/trace-<workload>.json when the pass ends. Of
// cfg.seconds, half goes to ops with the benchmark's spans around them
// (the layer timings come from these), a quarter to ops with the
// engine's own flight recorder and metrics registry attached (the
// difference is the tracing overhead), and the rest to the probes.
func tracedPass(w workload, cfg config) (runOutput, error) {
	tr := newTracer()
	root := tr.begin("workload", 0, -1, 0)

	setupSpan := tr.begin("setup", root, -1, 0)
	inst, info, err := w.setup(cfg, tr, setupSpan)
	tr.end(setupSpan)
	if err != nil {
		return runOutput{}, err
	}
	defer inst.close()
	vals := info.vals

	tr.timed("probes", root, func(id int) { probes(tr, id, numWorkers(), vals) })

	var ops, tops []opResult
	tr.timed("ops", root, func(id int) {
		var start time.Time
		ops, start = runOps(inst, cfg.share(0.5), tr, id, 0)
		inst.layers(tr, id, ops, ops[len(ops)-1].end.Sub(start), vals)
	})
	tinst, recorded := inst.traced()
	tr.timed("ops.traced", root, func(id int) {
		tops, _ = runOps(tinst, cfg.share(0.25), tr, id, len(ops))
	})
	vals["obs.trace_overhead_ratio"] = ratio(median(opSeconds(tops)), median(opSeconds(ops))) - 1
	vals["obs.events_recorded"] = float64(recorded())
	tr.end(root)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return runOutput{}, err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, cfg.seed, tr.spans); err != nil {
		return runOutput{}, err
	}
	attempted, failed := gate(append(ops, tops...), info)
	return runOutput{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: report(perLayer, vals)}, nil
}

// countKeys are the Result.Metrics counters reported as per-op medians.
var countKeys = []string{
	"hj.spawns", "hj.remote_spawns", "hj.steals", "hj.stolen_tasks", "hj.parks", "hj.lock_acquires", "hj.lock_failures",
	"lp.event_msgs", "lp.null_msgs", "lp.piggy_nulls", "lp.batches", "lp.cut_edges",
	"tw.rollbacks", "tw.undone", "tw.antis", "tw.stragglers", "tw.sweeps",
}

// layers reads the engine layers' share of the ops off what each op
// returned, then times the seq yardstick and checkpointed ops on the
// same inputs.
func (e *engineInstance) layers(tr *tracer, parent int, ops []opResult, _ time.Duration, vals map[string]float64) {
	var run, envelope, events []float64
	for _, r := range ops {
		if !r.failed {
			run = append(run, r.engineS)
			envelope = append(envelope, r.dur.Seconds()-r.engineS)
			events = append(events, float64(r.events))
		}
	}
	ev := median(events)
	vals["core.run_s"] = median(run)
	vals["core.ns_per_event"] = ratio(median(run)*1e9, ev)
	vals["core.envelope_s"] = median(envelope)
	for _, key := range countKeys {
		var xs []float64
		for _, r := range ops {
			xs = append(xs, float64(r.metrics[key]))
		}
		vals[key] = median(xs)
	}
	vals["hj.events_per_spawn"] = ratio(ev, vals["hj.spawns"])
	vals["hj.lock_success_ratio"] = ratio(vals["hj.lock_acquires"], vals["hj.lock_acquires"]+vals["hj.lock_failures"])
	vals["hj.steal_ratio"] = ratio(vals["hj.stolen_tasks"], vals["hj.spawns"])
	vals["lp.nmr"] = ratio(vals["lp.null_msgs"], vals["lp.event_msgs"])
	vals["lp.msgs_per_batch"] = ratio(vals["lp.event_msgs"], vals["lp.batches"])
	vals["lp.cross_event_fraction"] = ratio(vals["lp.event_msgs"], ev)
	if e.w.engine == "tw-hj" {
		vals["tw.efficiency"] = ratio(ev, ev+vals["tw.undone"])
	}

	const refRuns = 5
	var ref []float64
	tr.timed("probe.core.seq_ref", parent, func(int) {
		for i := 0; i < refRuns; i++ {
			if res, err := runSeq(e.c, e.stim, true); err == nil {
				ref = append(ref, res.Elapsed.Seconds())
			}
		}
	})
	vals["core.seq_ref_s"] = median(ref)
	// A speed-up over seq means nothing when the workers share cores.
	if e.opts.Workers <= runtime.GOMAXPROCS(0) {
		vals["core.vs_seq_ratio"] = ratio(median(ref), median(run))
	}

	const ckptOps = 3
	var ckptS, ckptBytes []float64
	tr.timed("probe.core.ckpt", parent, func(int) {
		opts := e.opts
		opts.CheckpointEvery = 1
		eng, _ := core.NewEngine(e.w.engine, opts) // the name resolved in set-up
		ck := *e
		ck.opts, ck.eng = opts, eng
		for i := 0; i < ckptOps; i++ {
			if r := ck.op(nil, 0, 0, -1); !r.failed {
				ckptS = append(ckptS, r.dur.Seconds())
				ckptBytes = append(ckptBytes, float64(r.metrics["checkpoint.bytes"]))
			}
		}
	})
	vals["core.ckpt_overhead_ratio"] = ratio(median(ckptS), median(opSeconds(ops))) - 1
	vals["core.ckpt_bytes"] = median(ckptBytes)
}

// layers splits submit→done by what the server's JobView says about
// each job.
func (s *serveInstance) layers(_ *tracer, _ int, ops []opResult, wall time.Duration, vals map[string]float64) {
	var submit, queued, run, engine, envelope, lag []float64
	rejected := 0
	for _, r := range ops {
		if r.rejected {
			rejected++
		}
		if r.failed {
			continue
		}
		submit = append(submit, r.submitS)
		queued = append(queued, r.queuedS)
		run = append(run, r.runS)
		engine = append(engine, r.engineS)
		envelope = append(envelope, r.runS-r.engineS)
		lag = append(lag, r.pollLagS)
	}
	secs := opSeconds(ops)
	vals["serve.submit_s"] = median(submit)
	vals["serve.queued_s"] = median(queued)
	vals["serve.run_s"] = median(run)
	vals["serve.engine_s"] = median(engine)
	vals["serve.envelope_s"] = median(envelope)
	vals["serve.poll_lag_s"] = median(lag)
	vals["serve.jobs_per_s"] = float64(len(run)) / wall.Seconds()
	vals["serve.job_p99_s"] = percentile(secs, 0.99)
	vals["serve.rejected"] = float64(rejected)
	pool := s.srv.Metrics().Service.Pool
	vals["serve.pool_reuse_ratio"] = ratio(float64(pool.Reused), float64(pool.Created+pool.Reused))
	// How much of submit→done is not the engine.
	vals["serve.envelope_share"] = 1 - ratio(median(engine), median(secs))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
