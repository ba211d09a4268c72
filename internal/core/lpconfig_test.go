package core

import (
	"errors"
	"testing"

	"hjdes/internal/circuit"
)

// TestLPOptionValidation checks that the lp-hj engine, on its default
// worker pool and on a single worker, rejects nonsensical Options up front
// with a structured, non-retryable *EngineError (Reason=FailConfig)
// instead of a late panic, and that sane defaults still run.
func TestLPOptionValidation(t *testing.T) {
	c := circuit.FullAdder()
	stim := circuit.VectorWaves(c, randomWaves(c, 2, 9), c.SettleTime()+10)
	rows := []struct {
		name    string
		factory func(Options) Engine
	}{
		{lpOneWorkerRow, newLPOneWorker},
		{"lp-hj", NewLPHJ},
	}
	cases := []struct {
		name   string
		opts   Options
		wantOK bool
	}{
		{"defaults", Options{}, true},
		{"explicit", Options{Workers: 2, Partitions: 3}, true},
		{"negative-partitions", Options{Partitions: -4}, false},
		{"huge-partitions", Options{Partitions: 1 << 28}, false},
		{"negative-workers", Options{Workers: -2}, false},
	}
	for _, row := range rows {
		for _, tc := range cases {
			t.Run(row.name+"/"+tc.name, func(t *testing.T) {
				res, err := row.factory(tc.opts).Run(c, stim)
				if tc.wantOK {
					if err != nil {
						t.Fatalf("valid options rejected: %v", err)
					}
					if res.TotalEvents == 0 {
						t.Fatal("run processed no events")
					}
					return
				}
				if err == nil {
					t.Fatal("nonsensical options accepted")
				}
				var ee *EngineError
				if !errors.As(err, &ee) {
					t.Fatalf("error is not an *EngineError: %v", err)
				}
				if ee.Reason != FailConfig {
					t.Fatalf("Reason = %q, want %q (err: %v)", ee.Reason, FailConfig, err)
				}
				if ee.Engine != "lp-hj" {
					t.Fatalf("Engine = %q, want %q", ee.Engine, "lp-hj")
				}
				if Retryable(err) {
					t.Fatalf("config errors must not be retryable: %v", err)
				}
			})
		}
	}
}
