package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hjdes/internal/circuit"
)

func TestEngineErrorClassification(t *testing.T) {
	inner := errors.New("root cause")
	cases := []struct {
		name       string
		err        error
		retryable  bool
		isDeadline bool
		isCanceled bool
	}{
		{"panic", &EngineError{Engine: "hj", Reason: FailPanic, Value: "boom"}, true, false, false},
		{"timeout", &EngineError{Engine: "lp-hj", Reason: FailTimeout}, true, true, false},
		{"stall", &EngineError{Engine: "galois", Reason: FailStall}, true, false, false},
		{"cancel", &EngineError{Engine: "seq", Reason: FailCancel}, false, false, true},
		{"wrapped panic", &EngineError{Engine: "actor", Reason: FailPanic, Err: inner}, true, false, false},
		{"plain error", errors.New("protocol violation"), false, false, false},
		{"nil", nil, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Retryable(tc.err); got != tc.retryable {
				t.Fatalf("Retryable = %v, want %v", got, tc.retryable)
			}
			if got := errors.Is(tc.err, context.DeadlineExceeded); got != tc.isDeadline {
				t.Fatalf("Is(DeadlineExceeded) = %v, want %v", got, tc.isDeadline)
			}
			if got := errors.Is(tc.err, context.Canceled); got != tc.isCanceled {
				t.Fatalf("Is(Canceled) = %v, want %v", got, tc.isCanceled)
			}
		})
	}
	wrapped := &EngineError{Engine: "actor", Reason: FailPanic, Err: inner}
	if !errors.Is(wrapped, inner) {
		t.Fatal("EngineError does not unwrap to its cause")
	}
}

// flakyEngine fails its first failures runs with a retryable panic error,
// then delegates to the inner engine.
type flakyEngine struct {
	failures int
	calls    int
	inner    Engine
}

func (f *flakyEngine) Name() string { return "flaky" }

func (f *flakyEngine) Run(c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, &EngineError{Engine: "flaky", Reason: FailPanic, Value: "induced failure"}
	}
	return f.inner.Run(c, stim)
}

func resilientTestInputs(t *testing.T) (*circuit.Circuit, *circuit.Stimulus, *Result) {
	t.Helper()
	c := circuit.FullAdder()
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 21)
	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return c, stim, ref
}

func TestResilientRetriesThroughFlakyEngine(t *testing.T) {
	c, stim, ref := resilientTestInputs(t)
	e := &flakyEngine{failures: 2, inner: NewSequential(Options{})}
	res, err := Resilient(nil, e, c, stim, ResilientConfig{
		Retry: RetryPolicy{Retries: 3, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("resilient run failed: %v", err)
	}
	if res.Attempts != 3 || res.Degraded {
		t.Fatalf("Attempts=%d Degraded=%v, want 3/false", res.Attempts, res.Degraded)
	}
	if res.Metrics["resilient.retries"] != 2 || res.Metrics["resilient.degraded"] != 0 {
		t.Fatalf("metrics %v, want retries=2 degraded=0", res.Metrics)
	}
	if ok, diff := SameOutputs(ref, res); !ok {
		t.Fatalf("retried run diverged: %s", diff)
	}
}

func TestResilientDegradesToFallback(t *testing.T) {
	c, stim, ref := resilientTestInputs(t)
	e := &flakyEngine{failures: 1 << 30, inner: nil} // never succeeds
	res, err := Resilient(nil, e, c, stim, ResilientConfig{
		Retry:    RetryPolicy{Retries: 1, Backoff: time.Millisecond},
		Fallback: []string{"seq"},
	})
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if !res.Degraded || res.Attempts != 3 { // primary, retry, then seq
		t.Fatalf("Attempts=%d Degraded=%v, want 3/true", res.Attempts, res.Degraded)
	}
	if res.Engine != "seq" {
		t.Fatalf("final engine %q, want seq", res.Engine)
	}
	if res.Metrics["resilient.degraded"] != 1 {
		t.Fatalf("resilient.degraded = %d, want 1", res.Metrics["resilient.degraded"])
	}
	if ok, diff := SameOutputs(ref, res); !ok {
		t.Fatalf("degraded run diverged: %s", diff)
	}
}

func TestResilientChainExhaustedFails(t *testing.T) {
	c, stim, _ := resilientTestInputs(t)
	bad := &flakyEngine{failures: 1 << 30}
	_, err := Resilient(nil, bad, c, stim, ResilientConfig{
		Retry: RetryPolicy{Retries: 1, Backoff: time.Millisecond},
	})
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Reason != FailPanic {
		t.Fatalf("exhausted chain returned %v, want the last FailPanic", err)
	}
}

// cancelingEngine always fails with a non-retryable cancellation error.
type cancelingEngine struct{ calls int }

func (e *cancelingEngine) Name() string { return "canceling" }
func (e *cancelingEngine) Run(*circuit.Circuit, *circuit.Stimulus) (*Result, error) {
	e.calls++
	return nil, &EngineError{Engine: "canceling", Reason: FailCancel}
}

func TestResilientDoesNotRetryCancel(t *testing.T) {
	c, stim, _ := resilientTestInputs(t)
	e := &cancelingEngine{}
	_, err := Resilient(nil, e, c, stim, ResilientConfig{
		Retry:    RetryPolicy{Retries: 5, Backoff: time.Millisecond},
		Fallback: []string{"seq"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want a cancellation error", err)
	}
	if e.calls != 1 {
		t.Fatalf("cancellation was attempted %d times, want exactly 1", e.calls)
	}
}

// TestResilientResumesFromCheckpoint is the end-to-end crash/resume path:
// a chaos hook panics the run once a checkpoint exists, and the retry must
// resume past segment 0 and still be bit-exact with the clean reference.
func TestResilientResumesFromCheckpoint(t *testing.T) {
	c, stim, ref := resilientTestInputs(t)
	store := NewCheckpointStore()
	panicked := false
	opts := Options{
		CheckpointEvery: 1,
		Chaos: &ChaosHooks{Task: func(int) {
			if !panicked && store.Count() >= 1 {
				panicked = true
				panic("chaos: induced mid-run crash")
			}
		}},
	}
	res, err := Resilient(nil, NewSequential(opts), c, stim, ResilientConfig{
		Supervise: SuperviseConfig{Checkpoints: store},
		Retry:     RetryPolicy{Retries: 1, Backoff: time.Millisecond},
		Options:   opts,
	})
	if err != nil {
		t.Fatalf("resilient run failed: %v", err)
	}
	if !panicked {
		t.Fatal("chaos hook never fired")
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", res.Attempts)
	}
	if res.Metrics["resilient.resumes"] != 1 {
		t.Fatalf("resilient.resumes = %d, want 1 (retry restarted from scratch?)", res.Metrics["resilient.resumes"])
	}
	if res.Metrics["resilient.resume_cycle"] < 1 {
		t.Fatalf("resilient.resume_cycle = %d, want >= 1", res.Metrics["resilient.resume_cycle"])
	}
	if res.TotalEvents != ref.TotalEvents {
		t.Fatalf("resumed run counted %d events, reference %d", res.TotalEvents, ref.TotalEvents)
	}
	if ok, diff := SameOutputs(ref, res); !ok {
		t.Fatalf("resumed run diverged: %s", diff)
	}
}

// nullEngine completes instantly with a preallocated result, isolating the
// wrapper overhead from real engine work.
type nullEngine struct{ res Result }

func (n *nullEngine) Name() string { return "null" }
func (n *nullEngine) Run(*circuit.Circuit, *circuit.Stimulus) (*Result, error) {
	return &n.res, nil
}

// TestResilientCleanPathZeroAlloc pins the clean-path guarantee: with no
// faults, no fallback and no checkpoint store, Resilient must not allocate
// beyond what bare Supervise already does.
func TestResilientCleanPathZeroAlloc(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.RandomStimulus(c, 1, c.SettleTime()+10, 1)
	e := &nullEngine{}

	bare := testing.AllocsPerRun(200, func() {
		if _, err := Supervise(nil, e, c, stim, SuperviseConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	wrapped := testing.AllocsPerRun(200, func() {
		if _, err := Resilient(nil, e, c, stim, ResilientConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped > bare {
		t.Fatalf("clean Resilient allocates %.1f allocs/run vs %.1f for bare Supervise", wrapped, bare)
	}
}

// The overhead pair for BENCH comparisons: bare Supervise vs clean-path
// Resilient on the paper's largest adder. The issue budget is <1% runtime
// overhead; the wrapper adds one loop iteration and three integer stores.
func benchResilientInputs(b *testing.B) (*circuit.Circuit, *circuit.Stimulus) {
	b.Helper()
	c := circuit.KoggeStone(64)
	return c, circuit.RandomStimulus(c, 8, c.SettleTime()+10, 5)
}

func BenchmarkSuperviseBare(b *testing.B) {
	c, stim := benchResilientInputs(b)
	e := NewSequential(Options{DiscardOutputs: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Supervise(nil, e, c, stim, SuperviseConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResilientOverhead(b *testing.B) {
	c, stim := benchResilientInputs(b)
	e := NewSequential(Options{DiscardOutputs: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resilient(nil, e, c, stim, ResilientConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// stubbornEngine fails with a retryable panic on every attempt; when
// block is set it first waits for the context to die, modeling a worker
// panic that arrives in the same instant as a cancellation.
type stubbornEngine struct{ block bool }

func (e *stubbornEngine) Name() string { return "stubborn" }
func (e *stubbornEngine) Run(*circuit.Circuit, *circuit.Stimulus) (*Result, error) {
	return nil, &EngineError{Engine: "stubborn", Reason: FailPanic, Value: "induced"}
}
func (e *stubbornEngine) RunContext(ctx context.Context, c *circuit.Circuit, stim *circuit.Stimulus) (*Result, error) {
	if e.block {
		<-ctx.Done()
	}
	return nil, &EngineError{Engine: "stubborn", Reason: FailPanic, Value: "induced"}
}

// TestResilientCancelMidBackoff cancels the parent context while
// Resilient sleeps out a multi-second backoff and requires a prompt
// return carrying context.Canceled, with no goroutines left behind.
func TestResilientCancelMidBackoff(t *testing.T) {
	c, stim, _ := resilientTestInputs(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Resilient(ctx, &stubbornEngine{}, c, stim, ResilientConfig{
		Retry: RetryPolicy{Retries: 5, Backoff: 10 * time.Second, MaxBackoff: 10 * time.Second},
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to surface; the backoff sleep must abort immediately", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if Retryable(err) {
		t.Fatalf("canceled run classified retryable: %v", err)
	}
	settleGoroutines(t, base)
}

// TestResilientCancelRacesRetryableFailure is the reclassification
// regression: when the caller's cancel and a retryable worker failure
// land together, Resilient must surface the cancellation — never hand an
// outer retry layer a Retryable error for a job whose owner walked away.
// Pre-fix, the attempt's FailPanic was returned verbatim here.
func TestResilientCancelRacesRetryableFailure(t *testing.T) {
	c, stim, _ := resilientTestInputs(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Resilient(ctx, &stubbornEngine{block: true}, c, stim, ResilientConfig{
		Retry:    RetryPolicy{Retries: 3, Backoff: 10 * time.Second},
		Fallback: []string{"seq"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation reclassified as %v, want context.Canceled", err)
	}
	if Retryable(err) {
		t.Fatalf("canceled run classified retryable: %v", err)
	}
	settleGoroutines(t, base)
}
