package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hjdes/internal/core"
	"hjdes/internal/obs"
)

// SchedConfig tunes the scheduler-level injector: faults inside the
// parallel runtimes themselves (hj workers, galois activities, timewarp
// rounds, actor loops, even the sequential workset loop), complementing
// the lp mailbox injector above. The zero value injects nothing.
type SchedConfig struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed int64
	// PanicProb is the per-task probability of panicking before the task
	// body runs. The panic is contained by the engine's normal panic path
	// and surfaces as a retryable FailPanic *core.EngineError.
	PanicProb float64
	// MaxPanics caps injected panics across the injector's lifetime —
	// i.e. across every attempt of a resilient run, so a retried run can
	// eventually get through. 0 means 1 (when PanicProb is set).
	MaxPanics int
	// WakeDropProb is the probability of swallowing an hj wakeOne token
	// (a lost wakeup). Mostly recoverable in place (parking workers
	// re-scan for visible work); the residual stall window is what the
	// supervisor watchdog exists for.
	WakeDropProb float64
	// MaxWakeDrops caps dropped wake tokens; 0 means 2.
	MaxWakeDrops int
	// WakeDelayProb is the probability of delaying a wakeup by WakeDelay
	// before it proceeds.
	WakeDelayProb float64
	// WakeDelay is the injected wakeup latency; 0 means 50µs.
	WakeDelay time.Duration
	// RollbackProb is the per-(node, round) probability of forcing a Time
	// Warp node to roll back half its processed history (a rollback
	// storm). Semantics-preserving.
	RollbackProb float64
	// MaxRollbacks caps forced rollbacks; 0 means 8.
	MaxRollbacks int
}

// SchedStats counts injected scheduler faults.
type SchedStats struct {
	TaskPanics atomic.Int64
	WakeDrops  atomic.Int64
	WakeDelays atomic.Int64
	Rollbacks  atomic.Int64
}

func (s *SchedStats) String() string {
	return fmt.Sprintf("task-panics=%d wake-drops=%d wake-delays=%d rollback-storms=%d",
		s.TaskPanics.Load(), s.WakeDrops.Load(), s.WakeDelays.Load(), s.Rollbacks.Load())
}

// Metrics returns the fault counts as a flat metrics map under the
// "chaos." namespace. Safe to call concurrently with a run.
func (s *SchedStats) Metrics() obs.Metrics {
	return obs.Metrics{
		"chaos.task_panics":     s.TaskPanics.Load(),
		"chaos.wake_drops":      s.WakeDrops.Load(),
		"chaos.wake_delays":     s.WakeDelays.Load(),
		"chaos.rollback_storms": s.Rollbacks.Load(),
	}
}

// InjectedPanic is the value thrown by an injected task panic, so tests
// (and humans reading EngineError dumps) can tell chaos faults from real
// bugs.
type InjectedPanic struct {
	Seq int64 // the task sequence number that drew the fault
}

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected task panic (task #%d)", p.Seq)
}

// SchedInjector injects scheduler-level faults through core.ChaosHooks.
// Unlike the lp interceptor — whose decisions can key off one LP's
// private send sequence — scheduler hooks fire from many workers at once,
// so decisions must not depend on shared RNG *state* (the interleaving
// would change the fault pattern and break run-to-run determinism of the
// caps). Every decision is therefore a pure splitmix64 hash of
// (seed, hook stream, per-hook call counter), and the caps are enforced
// with CAS so exactly MaxPanics/MaxWakeDrops/... faults fire no matter
// how calls interleave.
type SchedInjector struct {
	cfg     SchedConfig
	Stats   SchedStats
	taskSeq atomic.Int64
	wakeSeq atomic.Int64
}

// NewSched returns a scheduler-fault injector. One injector spans every
// attempt of a resilient run: the caps are lifetime caps, which is what
// lets a retried run complete once the fault budget is spent.
func NewSched(cfg SchedConfig) *SchedInjector {
	if cfg.MaxPanics <= 0 {
		cfg.MaxPanics = 1
	}
	if cfg.MaxWakeDrops <= 0 {
		cfg.MaxWakeDrops = 2
	}
	if cfg.WakeDelay <= 0 {
		cfg.WakeDelay = 50 * time.Microsecond
	}
	if cfg.MaxRollbacks <= 0 {
		cfg.MaxRollbacks = 8
	}
	return &SchedInjector{cfg: cfg}
}

// Hook stream identifiers: decisions on different hooks must be
// independent even at equal call counters.
const (
	streamPanic = 1 + iota
	streamWakeDelay
	streamWakeDrop
	streamRollback
)

// Hooks returns the core.ChaosHooks wired to this injector, for
// core.Options.Chaos. Returns hooks with nil members for fault kinds
// whose probability is zero, so unconfigured paths cost nothing.
func (inj *SchedInjector) Hooks() *core.ChaosHooks {
	h := &core.ChaosHooks{}
	if inj.cfg.PanicProb > 0 {
		h.Task = func(unit int) {
			n := inj.taskSeq.Add(1)
			if hash01(inj.cfg.Seed, streamPanic, n) < inj.cfg.PanicProb &&
				bumpCapped(&inj.Stats.TaskPanics, inj.cfg.MaxPanics) {
				panic(InjectedPanic{Seq: n})
			}
		}
	}
	if inj.cfg.WakeDropProb > 0 || inj.cfg.WakeDelayProb > 0 {
		h.Wake = func() bool {
			n := inj.wakeSeq.Add(1)
			if inj.cfg.WakeDelayProb > 0 && hash01(inj.cfg.Seed, streamWakeDelay, n) < inj.cfg.WakeDelayProb {
				inj.Stats.WakeDelays.Add(1)
				time.Sleep(inj.cfg.WakeDelay)
			}
			if inj.cfg.WakeDropProb > 0 && hash01(inj.cfg.Seed, streamWakeDrop, n) < inj.cfg.WakeDropProb &&
				bumpCapped(&inj.Stats.WakeDrops, inj.cfg.MaxWakeDrops) {
				return false
			}
			return true
		}
	}
	if inj.cfg.RollbackProb > 0 {
		h.Rollback = func(node int32, round int) bool {
			// Keyed by (node, round) rather than a counter: the decision is
			// identical for every worker count, keeping chaotic timewarp
			// runs deterministic.
			key := int64(node)<<20 ^ int64(round)
			return hash01(inj.cfg.Seed, streamRollback, key) < inj.cfg.RollbackProb &&
				bumpCapped(&inj.Stats.Rollbacks, inj.cfg.MaxRollbacks)
		}
	}
	return h
}

// hash01 maps (seed, stream, n) to [0, 1) via the splitmix64 finalizer.
func hash01(seed int64, stream, n int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// bumpCapped increments c unless it has reached cap, reporting whether
// this call won an increment. The CAS loop makes the cap exact under
// concurrent callers.
func bumpCapped(c *atomic.Int64, cap int) bool {
	for {
		cur := c.Load()
		if cur >= int64(cap) {
			return false
		}
		if c.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ParseSchedSpec parses a command-line scheduler-fault spec of
// comma-separated key=value fields:
//
//	seed=N panic=P maxpanics=N wakedrop=P maxwakedrops=N
//	wakedelay=P rollback=P maxrollbacks=N
//
// e.g. "seed=7,panic=0.001,maxpanics=2". An empty spec returns the zero
// SchedConfig.
func ParseSchedSpec(spec string) (SchedConfig, error) {
	var cfg SchedConfig
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, _ := strings.Cut(field, "=")
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "panic":
			cfg.PanicProb, err = strconv.ParseFloat(val, 64)
		case "maxpanics":
			cfg.MaxPanics, err = strconv.Atoi(val)
		case "wakedrop":
			cfg.WakeDropProb, err = strconv.ParseFloat(val, 64)
		case "maxwakedrops":
			cfg.MaxWakeDrops, err = strconv.Atoi(val)
		case "wakedelay":
			cfg.WakeDelayProb, err = strconv.ParseFloat(val, 64)
		case "rollback":
			cfg.RollbackProb, err = strconv.ParseFloat(val, 64)
		case "maxrollbacks":
			cfg.MaxRollbacks, err = strconv.Atoi(val)
		default:
			return cfg, fmt.Errorf("chaos: unknown sched spec field %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad sched spec field %q: %v", field, err)
		}
	}
	return cfg, nil
}
