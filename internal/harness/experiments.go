package harness

import (
	"fmt"
	"io"

	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/netdes"
	"hjdes/internal/stats"
)

// Config scales the paper's evaluation to the available time budget.
type Config struct {
	// Scale is the fraction of the paper's total event volume to
	// simulate (1.0 reproduces Table 1's 56M-103M events per run).
	Scale float64
	// Repeats per configuration; the paper uses 20.
	Repeats int
	// MaxWorkers bounds the sweep; the paper's POWER7 machine used 32.
	MaxWorkers int
	// Workers optionally fixes the sweep points; derived from MaxWorkers
	// (powers of two) when nil.
	Workers []int
	// Seed drives stimulus generation.
	Seed int64
	// Timeout bounds each individual engine run (0 = unbounded); a
	// wedged run fails its experiment with a structured error instead of
	// hanging the suite.
	Timeout time.Duration
	// Circuits optionally replaces the paper's three input circuits in
	// every experiment (useful for benchmarking your own circuits, and
	// for fast test configurations). Defaults to PaperCircuits.
	Circuits []PaperCircuit
	// HJAblations adds the hj scheduler ablation rows (hj built with
	// NoAffinity — no locality-aware wakeups, reported as hj-noaff — and
	// with SingleSteal — single-task steal instead of steal-half,
	// hj-steal1) to the bench sweep at every worker count above one.
	HJAblations bool
	// Retries, Fallback and CheckpointEvery configure the resilient
	// envelope for every measured run (see Spec); all zero means
	// fail-fast. Degraded or retried measurements are flagged in the
	// bench records so a trajectory point that survived faults is never
	// mistaken for a clean one.
	Retries         int
	Fallback        []string
	CheckpointEvery int
}

func (cfg Config) circuits() []PaperCircuit {
	if len(cfg.Circuits) > 0 {
		return cfg.Circuits
	}
	return PaperCircuits
}

// DefaultConfig is sized to regenerate every experiment in minutes on a
// laptop; use Scale=1, Repeats=20, MaxWorkers=32 for the paper's exact
// protocol.
func DefaultConfig() Config {
	return Config{Scale: 0.1, Repeats: 3, MaxWorkers: 8, Seed: 1}
}

func (cfg Config) workerCounts() []int {
	if len(cfg.Workers) > 0 {
		return cfg.Workers
	}
	max := cfg.MaxWorkers
	if max < 1 {
		max = 1
	}
	var ws []int
	for w := 1; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	if ws[len(ws)-1] != max {
		ws = append(ws, max)
	}
	return ws
}

// PaperCircuit ties one of the paper's input circuits (Table 1) to its
// published profile, so reports can show paper-vs-ours side by side.
type PaperCircuit struct {
	Name       string
	Build      func() *circuit.Circuit
	PaperNodes int
	PaperEdges int
	PaperInit  int
	PaperTotal int64
	// FullWaves is the wave count whose total event volume approximates
	// PaperTotal on our generators (calibrated empirically).
	FullWaves int
}

// PaperCircuits are Table 1's three inputs.
var PaperCircuits = []PaperCircuit{
	{"multiplier-12", func() *circuit.Circuit { return circuit.TreeMultiplier(12) }, 2731, 5100, 49, 56035581, 22},
	{"koggestone-64", func() *circuit.Circuit { return circuit.KoggeStone(64) }, 1306, 2289, 128258, 89683016, 1000},
	{"koggestone-128", func() *circuit.Circuit { return circuit.KoggeStone(128) }, 2973, 5303, 66050, 102591960, 258},
}

func (cfg Config) waves(pc PaperCircuit) int {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 0.1
	}
	w := int(float64(pc.FullWaves)*scale + 0.5)
	if w < 1 {
		w = 1
	}
	return w
}

func (cfg Config) stimulus(c *circuit.Circuit, pc PaperCircuit) *circuit.Stimulus {
	return circuit.RandomStimulus(c, cfg.waves(pc), c.SettleTime()+10, cfg.Seed)
}

func (cfg Config) repeats() int {
	if cfg.Repeats <= 0 {
		return 1
	}
	return cfg.Repeats
}

// Engine factories, resolved through the core engine registry so the
// harness never repeats the name→constructor mapping.

// factory returns an EngineFactory for the registered engine name with
// the given option template; the sweep's worker count is filled in per
// call and outputs are discarded (the harness only measures). The names
// used here are compile-time constants, so resolution failures panic.
func factory(name string, opts core.Options) EngineFactory {
	return func(workers int) core.Engine {
		o := opts
		o.Workers = workers
		o.DiscardOutputs = true
		e, err := core.NewEngine(name, o)
		if err != nil {
			panic(err)
		}
		return e
	}
}

var (
	seqFactory    = factory("seq", core.Options{})
	seqPQFactory  = factory("seq-pq", core.Options{})
	hjFactory     = factory("hj", core.Options{})
	galoisFactory = factory("galois", core.Options{})
)

// Table1 regenerates the paper's Table 1: profiles of the input circuits,
// with the published numbers alongside for comparison. Event counts are
// at the configured scale.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 1: circuit profiles (scale=%.3g; paper values in parens)", cfg.Scale),
		Headers: []string{"circuit", "nodes", "paper", "edges", "paper",
			"init_events", "paper", "total_events", "paper"},
	}
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		res, err := core.NewSequential(core.Options{DiscardOutputs: true}).Run(c, stim)
		if err != nil {
			return nil, err
		}
		t.AddRow(pc.Name,
			fmt.Sprint(c.NumNodes()), fmt.Sprintf("(%d)", pc.PaperNodes),
			fmt.Sprint(c.NumEdges()), fmt.Sprintf("(%d)", pc.PaperEdges),
			fmt.Sprint(stim.NumEvents()), fmt.Sprintf("(%d)", pc.PaperInit),
			fmt.Sprint(res.TotalEvents), fmt.Sprintf("(%d)", pc.PaperTotal),
		)
	}
	return t, nil
}

// Table2 regenerates the paper's Table 2: minimum sequential execution
// times of the HJlib-style (per-port deques) and Galois-style (priority
// queues) implementations. It returns the Galois-sequential minima keyed
// by circuit name, the speedup baselines of Figures 4-6.
func Table2(cfg Config) (*Table, map[string]float64, error) {
	t := &Table{
		Title:   fmt.Sprintf("Table 2: minimum sequential execution time, seconds (scale=%.3g, repeats=%d)", cfg.Scale, cfg.repeats()),
		Headers: []string{"circuit", "hjlib_seq_s", "galois_seq_s", "galois/hjlib"},
	}
	baselines := map[string]float64{}
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		mSeq, err := Measure(Spec{Label: pc.Name + "/seq", Circuit: c, Stim: stim, Factory: seqFactory, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, nil, err
		}
		mPQ, err := Measure(Spec{Label: pc.Name + "/seq-pq", Circuit: c, Stim: stim, Factory: seqPQFactory, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, nil, err
		}
		baselines[pc.Name] = mPQ.MinSeconds()
		t.AddRow(pc.Name, FmtSeconds(mSeq.MinSeconds()), FmtSeconds(mPQ.MinSeconds()),
			fmt.Sprintf("%.2fx", mPQ.MinSeconds()/mSeq.MinSeconds()))
	}
	return t, baselines, nil
}

// Fig1 regenerates the paper's Figure 1: available parallelism per
// computation step for the 6-bit tree multiplier.
func Fig1(cfg Config) (*Table, []int, error) {
	c := circuit.TreeMultiplier(6)
	profile, err := core.ProfileCircuit(c, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "Figure 1: available parallelism in DES (6-bit tree multiplier)",
		Headers: []string{"step", "parallelism"},
	}
	for i, p := range profile {
		t.AddRow(fmt.Sprint(i), fmt.Sprint(p))
	}
	return t, profile, nil
}

// FigSweep regenerates one of Figures 4-6: minimum execution time and
// speedup (relative to the Galois sequential implementation, as in the
// paper) as a function of worker count, for the HJ and Galois engines.
// figure selects the circuit: 4 = 12-bit multiplier, 5 = KS-64,
// 6 = KS-128.
func FigSweep(cfg Config, figure int) (*Table, error) {
	var pc PaperCircuit
	switch figure {
	case 4:
		pc = cfg.circuits()[0]
	case 5:
		pc = cfg.circuits()[1%len(cfg.circuits())]
	case 6:
		pc = cfg.circuits()[2%len(cfg.circuits())]
	default:
		return nil, fmt.Errorf("harness: FigSweep(%d): figure must be 4, 5 or 6", figure)
	}
	c := pc.Build()
	stim := cfg.stimulus(c, pc)

	base, err := Measure(Spec{Label: pc.Name + "/seq-pq", Circuit: c, Stim: stim, Factory: seqPQFactory, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
	if err != nil {
		return nil, err
	}
	baseline := base.MinSeconds()

	t := &Table{
		Title: fmt.Sprintf("Figure %d: %s — min time & speedup vs workers (baseline galois-seq %.4fs; scale=%.3g, repeats=%d)",
			figure, pc.Name, baseline, cfg.Scale, cfg.repeats()),
		Headers: []string{"workers", "hj_min_s", "hj_speedup", "galois_min_s", "galois_speedup", "hj_reduction_%"},
	}
	hjPts, err := Sweep(pc.Name+"/hj", c, stim, hjFactory, cfg.workerCounts(), cfg.repeats(), cfg.Timeout)
	if err != nil {
		return nil, err
	}
	gPts, err := Sweep(pc.Name+"/galois", c, stim, galoisFactory, cfg.workerCounts(), cfg.repeats(), cfg.Timeout)
	if err != nil {
		return nil, err
	}
	for i := range hjPts {
		h, g := hjPts[i].M, gPts[i].M
		t.AddRow(fmt.Sprint(hjPts[i].Workers),
			FmtSeconds(h.MinSeconds()), fmt.Sprintf("%.2f", stats.Speedup(baseline, h.MinSeconds())),
			FmtSeconds(g.MinSeconds()), fmt.Sprintf("%.2f", stats.Speedup(baseline, g.MinSeconds())),
			fmt.Sprintf("%.1f", stats.PercentReduction(g.MinSeconds(), h.MinSeconds())),
		)
	}
	return t, nil
}

// Fig7 regenerates the paper's Figure 7: average execution time with 95%
// confidence intervals at the maximum worker count, for both parallel
// versions on all three circuits.
func Fig7(cfg Config) (*Table, error) {
	workers := cfg.MaxWorkers
	if workers < 1 {
		workers = 1
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 7: average execution time ± 95%% CI at %d workers (scale=%.3g, repeats=%d)", workers, cfg.Scale, cfg.repeats()),
		Headers: []string{"circuit", "engine", "mean_s", "ci95_s", "min_s", "max_s"},
	}
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		for _, f := range []EngineFactory{hjFactory, galoisFactory} {
			m, err := Measure(Spec{Label: pc.Name, Circuit: c, Stim: stim, Factory: f, Workers: workers, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			t.AddRow(pc.Name, m.Engine, FmtSeconds(m.MeanSeconds()), FmtSeconds(m.CI95()),
				FmtSeconds(m.Times.Min()), FmtSeconds(m.Times.Max()))
		}
	}
	return t, nil
}

// Ablations measures the Section 4.5 design choices one at a time on the
// 12-bit multiplier: the fully optimized HJ engine against each
// single-optimization-removed variant, plus the coarse isolated fallback
// and the Galois baseline.
func Ablations(cfg Config) (*Table, error) {
	pc := cfg.circuits()[0]
	c := pc.Build()
	stim := cfg.stimulus(c, pc)
	workers := cfg.MaxWorkers
	if workers < 1 {
		workers = 1
	}
	variants := []struct {
		desc string
		f    EngineFactory
	}{
		{"hj fully optimized", hjFactory},
		{"no per-port deques (per-node PQ, 4.5.1)", factory("hj", core.Options{PerNodePQ: true})},
		{"no per-port locks (per-node locks, 4.5.1)", factory("hj", core.Options{PerNodeLocks: true})},
		{"no temp ready queue (4.5.1)", factory("hj", core.Options{NoTempQueue: true})},
		{"no async avoidance (4.5.3)", factory("hj", core.Options{NaiveRespawn: true})},
		{"global isolated instead of TryLock (3.2)", factory("hj", core.Options{GlobalIsolated: true})},
		{"mutex locks instead of AtomicBoolean (4.5.2)", factory("hj", core.Options{MutexLocks: true})},
		{"galois baseline", galoisFactory},
		{"galois with per-port conflict objects", factory("galois-fine", core.Options{})},
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablations: Section 4.5 optimizations on %s at %d workers (scale=%.3g, repeats=%d)", pc.Name, workers, cfg.Scale, cfg.repeats()),
		Headers: []string{"variant", "engine", "min_s", "vs_optimized"},
	}
	var best float64
	for i, v := range variants {
		m, err := Measure(Spec{Label: v.desc, Circuit: c, Stim: stim, Factory: v.f, Workers: workers, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			best = m.MinSeconds()
		}
		t.AddRow(v.desc, m.Engine, FmtSeconds(m.MinSeconds()), fmt.Sprintf("%.2fx", m.MinSeconds()/best))
	}
	return t, nil
}

// Profiles is the extension experiment generalizing Figure 1: available
// parallelism summaries for circuit families with very different
// topologies, quantifying the paper's observation that "different
// scalability results may be obtained for different circuits".
func Profiles(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Extension: available-parallelism profiles by circuit family (Figure 1 generalized)",
		Headers: []string{"circuit", "nodes", "depth", "steps", "peak", "mean", "profile"},
	}
	for _, c := range []*circuit.Circuit{
		circuit.TreeMultiplier(6),
		circuit.ArrayMultiplier(6),
		circuit.KoggeStone(32),
		circuit.BrentKung(32),
		circuit.Butterfly(5),
		circuit.ParityChain(32),
	} {
		profile, err := core.ProfileCircuit(c, cfg.Seed)
		if err != nil {
			return nil, err
		}
		spark := Sparkline(profile)
		if len([]rune(spark)) > 40 {
			spark = string([]rune(spark)[:40]) + "…"
		}
		t.AddRow(c.Name, fmt.Sprint(c.NumNodes()), fmt.Sprint(c.Depth()),
			fmt.Sprint(len(profile)), fmt.Sprint(core.MaxParallelism(profile)),
			fmt.Sprintf("%.1f", core.MeanParallelism(profile)), spark)
	}
	return t, nil
}

// TimeWarpExp is the extension experiment for the paper's Section 2.1
// related work: conservative (HJ) versus optimistic (Time Warp)
// execution of the same workloads. Rollback storms make Time Warp far
// slower on these reconvergent circuits, so its workload is scaled down
// by an extra factor of 10 relative to cfg.Scale.
func TimeWarpExp(cfg Config) (*Table, error) {
	workers := cfg.MaxWorkers
	if workers < 1 {
		workers = 1
	}
	twCfg := cfg
	twCfg.Scale = cfg.Scale / 10
	t := &Table{
		Title: fmt.Sprintf("Extension: conservative vs optimistic (Time Warp), %d workers (scale=%.3g, repeats=%d)",
			workers, twCfg.Scale, cfg.repeats()),
		Headers: []string{"circuit", "events", "hj_min_s", "tw_min_s", "tw/hj", "rollbacks", "undone", "antis"},
	}
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := twCfg.stimulus(c, pc)
		hjM, err := Measure(Spec{Label: pc.Name + "/hj", Circuit: c, Stim: stim, Factory: hjFactory, Workers: workers, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		// Measure Time Warp once by hand to capture its stats.
		tw := factory("timewarp", core.Options{})(workers)
		var best *core.Result
		for i := 0; i < cfg.repeats(); i++ {
			res, err := tw.Run(c, stim)
			if err != nil {
				return nil, err
			}
			if best == nil || res.Elapsed < best.Elapsed {
				best = res
			}
		}
		t.AddRow(pc.Name, fmt.Sprint(best.TotalEvents),
			FmtSeconds(hjM.MinSeconds()), FmtSeconds(best.Elapsed.Seconds()),
			fmt.Sprintf("%.1fx", best.Elapsed.Seconds()/hjM.MinSeconds()),
			fmt.Sprint(best.TimeWarp.Rollbacks), fmt.Sprint(best.TimeWarp.Undone), fmt.Sprint(best.TimeWarp.Antis))
	}
	return t, nil
}

// OrderedExp is the extension experiment for the paper's reference [12]
// (Hassaan, Burtscher, Pingali: "Ordered vs. unordered"): the same DES
// expressed on the Galois unordered iterator with Chandy–Misra clocks
// (Algorithm 3) versus the ordered iterator with global timestamp order.
func OrderedExp(cfg Config) (*Table, error) {
	workers := cfg.MaxWorkers
	if workers < 1 {
		workers = 1
	}
	ordCfg := cfg
	ordCfg.Scale = cfg.Scale / 10 // priority-level barriers are slow
	t := &Table{
		Title: fmt.Sprintf("Extension: unordered vs ordered Galois iterator (ref [12]), %d workers (scale=%.3g, repeats=%d)",
			workers, ordCfg.Scale, cfg.repeats()),
		Headers: []string{"circuit", "events", "unordered_min_s", "ordered_min_s", "ordered/unordered"},
	}
	orderedFactory := factory("galois-ordered", core.Options{})
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := ordCfg.stimulus(c, pc)
		un, err := Measure(Spec{Label: pc.Name + "/unordered", Circuit: c, Stim: stim, Factory: galoisFactory, Workers: workers, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		or, err := Measure(Spec{Label: pc.Name + "/ordered", Circuit: c, Stim: stim, Factory: orderedFactory, Workers: workers, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
		if err != nil {
			return nil, err
		}
		t.AddRow(pc.Name, fmt.Sprint(un.Events),
			FmtSeconds(un.MinSeconds()), FmtSeconds(or.MinSeconds()),
			fmt.Sprintf("%.2fx", or.MinSeconds()/un.MinSeconds()))
	}
	return t, nil
}

// LPExp is the extension experiment for the partitioned logical-process
// engine (the PARSIR-style architecture from PAPERS.md): each circuit is
// split into K node-disjoint partitions, one message-passing LP per
// partition, synchronized by Chandy–Misra–Bryant null messages, each LP
// a task on the hj work-stealing runtime (lp-hj, §15). The partition
// count is swept over the worker counts, reporting the partition quality
// (edge-cut fraction, load imbalance) and the null-message ratio — the
// canonical CMB overhead metric — next to the runtime and the
// shared-memory HJ engine at the same parallelism.
func LPExp(cfg Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Extension: partitioned logical-process engine (CMB null messages; scale=%.3g, repeats=%d)",
			cfg.Scale, cfg.repeats()),
		Headers: []string{"circuit", "lps", "lphj_min_s", "hj_min_s", "lphj/hj",
			"edge_cut_%", "imbalance", "event_msgs", "null_msgs", "null_ratio"},
	}
	// Measure lp-hj by hand to capture its stats.
	bestOf := func(k int, c *circuit.Circuit, stim *circuit.Stimulus) (*core.Result, error) {
		e := factory("lp-hj", core.Options{Partitions: k})(k)
		var best *core.Result
		for i := 0; i < cfg.repeats(); i++ {
			res, err := e.Run(c, stim)
			if err != nil {
				return nil, err
			}
			if best == nil || res.Elapsed < best.Elapsed {
				best = res
			}
		}
		return best, nil
	}
	for _, pc := range cfg.circuits() {
		c := pc.Build()
		stim := cfg.stimulus(c, pc)
		for _, k := range cfg.workerCounts() {
			hjM, err := Measure(Spec{Label: pc.Name + "/hj", Circuit: c, Stim: stim, Factory: hjFactory, Workers: k, Repeats: cfg.repeats(), Timeout: cfg.Timeout})
			if err != nil {
				return nil, err
			}
			best, err := bestOf(k, c, stim)
			if err != nil {
				return nil, err
			}
			s := best.LP
			t.AddRow(pc.Name, fmt.Sprint(k),
				FmtSeconds(best.Elapsed.Seconds()), FmtSeconds(hjM.MinSeconds()),
				fmt.Sprintf("%.2fx", best.Elapsed.Seconds()/hjM.MinSeconds()),
				fmt.Sprintf("%.1f", 100*s.EdgeCut), fmt.Sprintf("%.2f", s.Imbalance),
				fmt.Sprint(s.EventMsgs), fmt.Sprint(s.NullMsgs),
				fmt.Sprintf("%.3f", s.NullRatio()))
		}
	}
	return t, nil
}

// NetDES is the extension experiment for the paper's future-work
// direction: the conservative packet-network simulator over growing mesh
// sizes, sequential vs. hj-parallel.
func NetDES(cfg Config) (*Table, error) {
	workers := cfg.MaxWorkers
	if workers < 2 {
		workers = 2
	}
	t := &Table{
		Title:   fmt.Sprintf("Extension: packet-network DES (paper future work), seq vs hj(%d workers), repeats=%d", workers, cfg.repeats()),
		Headers: []string{"network", "packets", "events", "supersteps", "seq_min_s", "hj_min_s", "avg_latency"},
	}
	for _, side := range []int{4, 8, 12} {
		nw := netdes.Grid(side, side, 1, 1)
		last := netdes.NodeID(nw.N - 1)
		tr := netdes.Traffic{
			{Src: 0, Dst: last, Start: 1, Interval: 1, Count: 400},
			{Src: last, Dst: 0, Start: 1, Interval: 1, Count: 400},
			{Src: netdes.NodeID(side - 1), Dst: netdes.NodeID(nw.N - side), Start: 2, Interval: 2, Count: 200},
		}
		measure := func(w int) (*netdes.Result, float64, error) {
			best := -1.0
			var res *netdes.Result
			for i := 0; i < cfg.repeats(); i++ {
				r, err := netdes.Simulate(nw, tr, netdes.Config{Workers: w})
				if err != nil {
					return nil, 0, err
				}
				if best < 0 || r.Elapsed.Seconds() < best {
					best = r.Elapsed.Seconds()
					res = r
				}
			}
			return res, best, nil
		}
		seqRes, seqMin, err := measure(1)
		if err != nil {
			return nil, err
		}
		_, hjMin, err := measure(workers)
		if err != nil {
			return nil, err
		}
		t.AddRow(nw.Name,
			fmt.Sprint(seqRes.Injected), fmt.Sprint(seqRes.Events), fmt.Sprint(seqRes.Supersteps),
			FmtSeconds(seqMin), FmtSeconds(hjMin), fmt.Sprintf("%.1f", seqRes.AvgLatency()))
	}
	return t, nil
}

// All runs every experiment and writes the reports to w.
func All(cfg Config, w io.Writer) error {
	t1, err := Table1(cfg)
	if err != nil {
		return err
	}
	if err := t1.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	t2, _, err := Table2(cfg)
	if err != nil {
		return err
	}
	if err := t2.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	f1, profile, err := Fig1(cfg)
	if err != nil {
		return err
	}
	_ = f1 // full per-step table is long; report the sparkline + summary
	fmt.Fprintf(w, "== Figure 1: available parallelism (6-bit tree multiplier) ==\n")
	fmt.Fprintf(w, "steps=%d peak=%d mean=%.1f\n%s\n\n",
		len(profile), core.MaxParallelism(profile), core.MeanParallelism(profile), Sparkline(profile))

	for fig := 4; fig <= 6; fig++ {
		ft, err := FigSweep(cfg, fig)
		if err != nil {
			return err
		}
		if err := ft.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	f7, err := Fig7(cfg)
	if err != nil {
		return err
	}
	if err := f7.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	ab, err := Ablations(cfg)
	if err != nil {
		return err
	}
	if err := ab.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	pr, err := Profiles(cfg)
	if err != nil {
		return err
	}
	if err := pr.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	tw, err := TimeWarpExp(cfg)
	if err != nil {
		return err
	}
	if err := tw.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	oe, err := OrderedExp(cfg)
	if err != nil {
		return err
	}
	if err := oe.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	le, err := LPExp(cfg)
	if err != nil {
		return err
	}
	if err := le.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	nd, err := NetDES(cfg)
	if err != nil {
		return err
	}
	return nd.WriteText(w)
}

// Sparkline renders an integer series as a compact unicode graph.
func Sparkline(series []int) string {
	if len(series) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	max := core.MaxParallelism(series)
	if max == 0 {
		max = 1
	}
	out := make([]rune, len(series))
	for i, v := range series {
		idx := v * (len(blocks) - 1) / max
		out[i] = blocks[idx]
	}
	return string(out)
}
