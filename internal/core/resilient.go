package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/obs"
)

// RetryPolicy tunes Resilient's response to a retryable failure.
type RetryPolicy struct {
	// Retries is how many extra attempts the current engine gets after
	// its first failure before Resilient degrades to the next engine in
	// the fallback chain. 0 means fail over (or fail out) immediately.
	Retries int
	// Backoff is the first retry's delay; each subsequent retry doubles
	// it, capped at MaxBackoff. Zero defaults to 50ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Zero defaults to 2s.
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter so chaos soaks are reproducible.
	Seed int64
}

func (p RetryPolicy) backoff() time.Duration {
	if p.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.Backoff
}

func (p RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return p.MaxBackoff
}

// ResilientConfig configures one resilient run.
type ResilientConfig struct {
	// Supervise is applied to every attempt (timeout, stall watchdog).
	// If Supervise.Checkpoints is nil and Options.CheckpointEvery > 0, a
	// fresh CheckpointStore is created so attempts resume rather than
	// restart.
	Supervise SuperviseConfig
	// Retry is the per-engine retry budget and backoff schedule.
	Retry RetryPolicy
	// Fallback is the engine degradation chain, tried in order after the
	// primary engine's retry budget is exhausted (e.g. "lp-hj", "seq").
	// Each name is resolved through the registry with Options.
	Fallback []string
	// Options builds the fallback engines and sets CheckpointEvery.
	Options Options
}

// Resilient runs the engine under Supervise and keeps the run alive
// through classified-retryable failures (task panics — including injected
// chaos faults — timeouts, stalls): it retries with capped exponential
// backoff plus seeded jitter, resumes each retry from the latest
// crash-consistent checkpoint when checkpointing is enabled, and after
// the retry budget degrades down cfg.Fallback so the run completes on a
// simpler engine rather than failing. The Result is annotated with
// Attempts/Degraded and, when anything non-clean happened, with
// resilient.* metrics. Fatal failures (cancellation, protocol errors) and
// an exhausted chain return the last error.
//
// The clean path — first attempt succeeds, no checkpoint store — adds no
// allocations over bare Supervise.
func Resilient(ctx context.Context, e Engine, c *circuit.Circuit, stim *circuit.Stimulus, cfg ResilientConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scfg := cfg.Supervise
	if scfg.Checkpoints == nil && cfg.Options.CheckpointEvery > 0 {
		scfg.Checkpoints = NewCheckpointStore()
	}

	var rng *rand.Rand // lazily created: clean runs never touch it
	attempts := 0
	tries := 0    // failures of the *current* engine
	chainIdx := 0 // 0 = primary, i>0 = cfg.Fallback[i-1]
	for {
		attempts++
		res, err := Supervise(ctx, e, c, stim, scfg)
		if err == nil {
			res.Attempts = attempts
			res.Degraded = chainIdx > 0
			annotateResilient(res, attempts, res.Degraded, scfg.Checkpoints, cfg.Options)
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller gave up. Surface the cancellation, never the
			// failure that raced it: a worker panic arriving in the same
			// instant as the cancel must not leave the caller holding a
			// Retryable error — an outer layer (the serving drain path)
			// would re-run a job whose owner already walked away. When the
			// engine's own error classifies as the context sentinel it is
			// kept (it carries Diag); otherwise the context cause wins.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, context.Cause(ctx)
		}
		if !Retryable(err) {
			return nil, err
		}
		tries++
		if tries > cfg.Retry.Retries {
			// Budget exhausted: degrade to the next engine in the chain.
			if chainIdx >= len(cfg.Fallback) {
				return nil, err
			}
			next, nerr := NewEngine(cfg.Fallback[chainIdx], cfg.Options)
			if nerr != nil {
				return nil, nerr
			}
			e = next
			chainIdx++
			tries = 0
			continue // fail over immediately, no backoff
		}
		b := cfg.Retry.backoff() << (tries - 1)
		if max := cfg.Retry.maxBackoff(); b <= 0 || b > max {
			b = max
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(cfg.Retry.Seed))
		}
		// Equal jitter: half deterministic, half seeded-random, so
		// concurrent retries decorrelate without unbounded spread.
		b = b/2 + time.Duration(rng.Int63n(int64(b/2)+1))
		t := time.NewTimer(b)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, context.Cause(ctx)
		case <-t.C:
		}
	}
}

// annotateResilient folds the resilience counters into the result's
// metrics map. Clean runs (one attempt, no degradation, no snapshots)
// are left untouched so the zero-fault path allocates nothing.
func annotateResilient(res *Result, attempts int, degraded bool, store *CheckpointStore, opts Options) {
	if attempts <= 1 && !degraded && (store == nil || store.Count() == 0) {
		return
	}
	if res.Metrics == nil {
		res.Metrics = make(obs.Metrics)
	}
	res.Metrics["resilient.retries"] = int64(attempts - 1)
	if degraded {
		res.Metrics["resilient.degraded"] = 1
	} else {
		res.Metrics["resilient.degraded"] = 0
	}
	if store != nil {
		store.MetricsInto(res.Metrics)
	}
	if opts.Metrics != nil {
		opts.Metrics.MergeMetrics(obs.Metrics{
			"resilient.retries":  int64(attempts - 1),
			"resilient.degraded": res.Metrics["resilient.degraded"],
		})
	}
}
