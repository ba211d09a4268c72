// Package chaos is a seeded, deterministic fault injector for the LP
// engine. It implements lp.Interceptor at the mailbox boundary: every
// cross-partition message an LP sends passes through a per-LP injector
// that can hold it back (delaying it past later traffic — a cross-port
// reorder within the protocol's lookahead), duplicate it (null messages
// only: clock advances are idempotent, event duplication would corrupt
// the simulation), drop it (null messages only, to induce protocol
// deadlocks for watchdog testing), or kill the LP at its next loop top
// and restart it from a checkpoint.
//
// Determinism: each LP gets its own RNG seeded from Config.Seed and the
// LP id, and all injector state is touched only from that LP's slices,
// which never overlap.
// The fault *decisions* are therefore a pure function of (seed, that LP's
// send sequence), independent of scheduling. Because the injector
// preserves the invariants in the lp.Interceptor contract — per-port
// FIFO, no event duplication or loss, full flush before nulls and yields
// — a chaos run must still produce bit-identical results to the
// sequential oracle, or fail loudly (Paranoid causality panic, structured
// engine error). The chaos tests assert exactly that.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"hjdes/internal/lp"
	"hjdes/internal/obs"
)

// Config tunes the injector. The zero value injects nothing.
type Config struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed int64
	// DelayProb is the probability of holding back an outgoing event
	// message until a later send to the same LP, the next null on that
	// channel, or the end of the sender's slice.
	DelayProb float64
	// MaxHeld caps messages held per LP at once; 0 means 16.
	MaxHeld int
	// DupNullProb is the probability of sending a null message twice.
	DupNullProb float64
	// DropNulls drops every null message (both per-edge NULL(∞) and
	// channel promises). Termination and clock advances then never
	// propagate across cuts, so any multi-LP run deadlocks — the induced
	// failure the stall watchdog must catch.
	DropNulls bool
	// KillProb is the per-loop-iteration probability of killing the LP
	// and restarting it from a checkpoint.
	KillProb float64
	// MaxKills caps kill-restart cycles per LP; 0 means 1 (when KillProb
	// is set).
	MaxKills int
}

// Stats counts injected faults across all LPs of a run.
type Stats struct {
	Held         atomic.Int64 // event messages held back
	Released     atomic.Int64 // held messages released again
	DupedNulls   atomic.Int64
	DroppedNulls atomic.Int64
	Kills        atomic.Int64
}

func (s *Stats) String() string {
	return fmt.Sprintf("held=%d released=%d duped-nulls=%d dropped-nulls=%d kills=%d",
		s.Held.Load(), s.Released.Load(), s.DupedNulls.Load(), s.DroppedNulls.Load(), s.Kills.Load())
}

// Metrics returns the fault counts as a flat metrics map under the
// "chaos." namespace. Safe to call concurrently with a run.
func (s *Stats) Metrics() obs.Metrics {
	return obs.Metrics{
		"chaos.held":          s.Held.Load(),
		"chaos.released":      s.Released.Load(),
		"chaos.duped_nulls":   s.DupedNulls.Load(),
		"chaos.dropped_nulls": s.DroppedNulls.Load(),
		"chaos.kills":         s.Kills.Load(),
	}
}

// Injector builds per-LP interceptors sharing one Config and Stats.
type Injector struct {
	cfg   Config
	Stats Stats
}

// New returns an injector for one run (or several: decisions depend only
// on seed and per-LP send sequences, so reuse is safe; Stats accumulate).
func New(cfg Config) *Injector {
	if cfg.MaxHeld <= 0 {
		cfg.MaxHeld = 16
	}
	if cfg.MaxKills <= 0 {
		cfg.MaxKills = 1
	}
	return &Injector{cfg: cfg}
}

// Factory is the lp.Config.NewInterceptor / core.NewLPHJIntercepted hook.
func (inj *Injector) Factory() func(lpID int) lp.Interceptor {
	return func(lpID int) lp.Interceptor {
		return &interceptor{
			inj: inj,
			rng: rand.New(rand.NewSource(inj.cfg.Seed ^ int64(uint64(lpID+1)*0x9e3779b97f4a7c15))),
		}
	}
}

// portKey identifies one destination (node, port) stream for the FIFO
// hold rule.
type portKey struct{ node, port int32 }

// interceptor is one LP's fault state; all fields are confined to that
// LP's slices.
type interceptor struct {
	inj       *Injector
	rng       *rand.Rand
	held      []lp.Delivery    // insertion order; per-port FIFO inside
	heldPorts map[portKey]bool // ports with a held event (FIFO: later events must queue behind)
	kills     int
}

// takeHeldFor removes and returns, in order, every held delivery bound
// for LP to.
func (ic *interceptor) takeHeldFor(to int32) []lp.Delivery {
	var out, rest []lp.Delivery
	for _, d := range ic.held {
		if d.To == to {
			out = append(out, d)
			delete(ic.heldPorts, portKey{d.M.Node, d.M.Port})
		} else {
			rest = append(rest, d)
		}
	}
	ic.held = rest
	ic.inj.Stats.Released.Add(int64(len(out)))
	return out
}

func (ic *interceptor) OnSend(src, to int32, m lp.Msg) []lp.Delivery {
	cfg := &ic.inj.cfg
	switch m.Kind {
	case lp.MsgEvent:
		key := portKey{m.Node, m.Port}
		// FIFO rule: once an event for this (node, port) is held, every
		// later event for it must queue behind, regardless of the dice.
		mustHold := ic.heldPorts[key]
		wantHold := cfg.DelayProb > 0 && len(ic.held) < cfg.MaxHeld && ic.rng.Float64() < cfg.DelayProb
		if mustHold || wantHold {
			if ic.heldPorts == nil {
				ic.heldPorts = map[portKey]bool{}
			}
			ic.heldPorts[key] = true
			ic.held = append(ic.held, lp.Delivery{To: to, M: m})
			ic.inj.Stats.Held.Add(1)
			return nil
		}
		return []lp.Delivery{{To: to, M: m}}

	default: // MsgNullEdge, MsgNullChan
		if cfg.DropNulls {
			ic.inj.Stats.DroppedNulls.Add(1)
			// Held events still flush eventually (OnBlock); only the
			// promises vanish.
			return nil
		}
		// A null is a promise about this destination's future: everything
		// held for it must be delivered first, or the promise is a lie.
		out := ic.takeHeldFor(to)
		out = append(out, lp.Delivery{To: to, M: m})
		if cfg.DupNullProb > 0 && ic.rng.Float64() < cfg.DupNullProb {
			// Nulls are idempotent (clocks only ratchet forward), so a
			// duplicate exercises receiver tolerance without corruption.
			out = append(out, lp.Delivery{To: to, M: m})
			ic.inj.Stats.DupedNulls.Add(1)
		}
		return out
	}
}

func (ic *interceptor) OnBlock(src int32) []lp.Delivery {
	if len(ic.held) == 0 {
		return nil
	}
	out := ic.held
	ic.held = nil
	for k := range ic.heldPorts {
		delete(ic.heldPorts, k)
	}
	ic.inj.Stats.Released.Add(int64(len(out)))
	return out
}

func (ic *interceptor) CrashPoint(src int32) bool {
	cfg := &ic.inj.cfg
	if cfg.KillProb <= 0 || ic.kills >= cfg.MaxKills {
		return false
	}
	if ic.rng.Float64() >= cfg.KillProb {
		return false
	}
	ic.kills++
	ic.inj.Stats.Kills.Add(1)
	return true
}

// ParseSpec parses a command-line fault spec of comma-separated
// key[=value] fields:
//
//	seed=N delay=P dup=P kill=P maxkills=N maxheld=N dropnulls
//
// e.g. "seed=7,delay=0.3,dup=0.2,kill=0.1". An empty spec returns the
// zero Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		var err error
		switch key {
		case "dropnulls":
			cfg.DropNulls = true
			if hasVal {
				cfg.DropNulls, err = strconv.ParseBool(val)
			}
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "delay":
			cfg.DelayProb, err = strconv.ParseFloat(val, 64)
		case "dup":
			cfg.DupNullProb, err = strconv.ParseFloat(val, 64)
		case "kill":
			cfg.KillProb, err = strconv.ParseFloat(val, 64)
		case "maxkills":
			cfg.MaxKills, err = strconv.Atoi(val)
		case "maxheld":
			cfg.MaxHeld, err = strconv.Atoi(val)
		default:
			return cfg, fmt.Errorf("chaos: unknown spec field %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad spec field %q: %v", field, err)
		}
	}
	return cfg, nil
}
