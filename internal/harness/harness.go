// Package harness runs the paper's evaluation: repeated, parameterized
// simulation runs over circuits, engines and worker counts, summarized
// the way the paper reports them (minimum execution times for Figures
// 4-6, averages with 95% confidence intervals for Figure 7) and rendered
// as aligned text tables and CSV.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/obs"
	"hjdes/internal/stats"
)

// EngineFactory builds an engine for a given worker count. Sequential
// engines ignore the argument.
type EngineFactory func(workers int) core.Engine

// Spec describes one measured configuration.
type Spec struct {
	Label   string
	Circuit *circuit.Circuit
	Stim    *circuit.Stimulus
	Factory EngineFactory
	Workers int
	Repeats int // paper: 20
	// Timeout bounds each individual run (0 = unbounded): a wedged
	// engine fails the measurement with a structured error instead of
	// hanging the whole suite.
	Timeout time.Duration
	// Retries, Fallback and CheckpointEvery configure the resilient
	// envelope (core.Resilient) each run executes under. All zero means
	// fail-fast, exactly the old supervised behavior.
	Retries         int
	Fallback        []string
	CheckpointEvery int
}

// resilientOptions builds the option set Resilient uses to construct
// fallback engines for this spec.
func (s Spec) resilientOptions() core.Options {
	return core.Options{
		Workers:         s.Workers,
		Partitions:      s.Workers,
		DiscardOutputs:  true,
		CheckpointEvery: s.CheckpointEvery,
	}
}

// Measurement is the repeated-run summary of one Spec.
type Measurement struct {
	Label   string
	Engine  string
	Workers int
	Events  int64
	Times   *stats.Sample // seconds per run
	// AllocsPerOp and BytesPerOp are the process-wide heap allocation
	// count and volume per run, averaged over the repeats (the benchmark
	// notion of allocs/op, measured with runtime.MemStats deltas).
	AllocsPerOp uint64
	BytesPerOp  uint64
	// Attempts is the worst (maximum) attempt count any repeat needed;
	// Degraded reports whether any repeat finished on a fallback engine.
	// Clean measurements read 1/false.
	Attempts int
	Degraded bool
	// Best is the full result of the fastest run, for engine-specific
	// statistics (null-message ratio, scheduler counters) next to the
	// timing summary.
	Best *core.Result
}

// Measure runs the spec Repeats times and collects timing statistics.
// Output recording is disabled during measurement; a RunAndVerify pass
// belongs in the tests, not the timed loop. Runs execute under the
// resilient envelope: a panic inside an engine fails the measurement with
// a structured error (or, with Spec.Retries/Fallback set, is retried and
// degraded through the fallback chain), and Spec.Timeout bounds each run.
func Measure(spec Spec) (*Measurement, error) {
	repeats := spec.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	eng := spec.Factory(spec.Workers)
	m := &Measurement{
		Label:    spec.Label,
		Engine:   eng.Name(),
		Workers:  spec.Workers,
		Times:    stats.New(),
		Attempts: 1,
	}
	rcfg := core.ResilientConfig{
		Supervise: core.SuperviseConfig{Timeout: spec.Timeout},
		Retry:     core.RetryPolicy{Retries: spec.Retries},
		Fallback:  spec.Fallback,
		Options:   spec.resilientOptions(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// pprof labels scope any CPU/goroutine profile taken during the sweep:
	// `go tool pprof -tagfocus engine=lp-hj` isolates one engine's samples.
	var runErr error
	obs.Labeled(context.Background(), m.Engine, spec.Label, func(ctx context.Context) {
		for i := 0; i < repeats; i++ {
			res, err := core.Resilient(ctx, eng, spec.Circuit, spec.Stim, rcfg)
			if err != nil {
				runErr = fmt.Errorf("harness: %s run %d: %w", spec.Label, i, err)
				return
			}
			m.Events = res.TotalEvents
			m.Times.Add(res.Elapsed.Seconds())
			if res.Attempts > m.Attempts {
				m.Attempts = res.Attempts
			}
			m.Degraded = m.Degraded || res.Degraded
			if m.Best == nil || res.Elapsed < m.Best.Elapsed {
				m.Best = res
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	runtime.ReadMemStats(&after)
	m.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(repeats)
	m.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(repeats)
	return m, nil
}

// MinSeconds is the paper's headline metric (minimum over repeats).
func (m *Measurement) MinSeconds() float64 { return m.Times.Min() }

// MeanSeconds and CI95 are the Figure 7 metrics.
func (m *Measurement) MeanSeconds() float64 { return m.Times.Mean() }

// CI95 is the 95% confidence half-width of the mean, in seconds.
func (m *Measurement) CI95() float64 { return m.Times.CI95() }

// SweepPoint is one worker count of a sweep.
type SweepPoint struct {
	Workers int
	M       *Measurement
}

// Sweep measures the factory across the given worker counts; timeout
// bounds each individual run (0 = unbounded).
func Sweep(label string, c *circuit.Circuit, stim *circuit.Stimulus, f EngineFactory, workerCounts []int, repeats int, timeout time.Duration) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(workerCounts))
	for _, w := range workerCounts {
		m, err := Measure(Spec{
			Label: fmt.Sprintf("%s/w%d", label, w), Circuit: c, Stim: stim,
			Factory: f, Workers: w, Repeats: repeats, Timeout: timeout,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{Workers: w, M: m})
	}
	return points, nil
}

// Table is a rendered experiment: headers plus rows, writable as aligned
// text or CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (cells are simple tokens; no quoting
// needed).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FmtSeconds renders a duration in seconds with ms precision.
func FmtSeconds(s float64) string {
	return fmt.Sprintf("%.4f", s)
}

// FmtDuration renders a time.Duration compactly.
func FmtDuration(d time.Duration) string { return d.Round(time.Microsecond).String() }
