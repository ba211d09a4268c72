package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declaration mirrors BENCHMARK.json at the repository root.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in this package must name the same
// workloads and metrics, in the same order, with the same units,
// directions and bounds.
func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclaration(t)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, code %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		name(m.Name)
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: declared %+v, code %+v", i, got, endToEnd[i])
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v out of range", m.Name, m.Unit, m.Bound)
		}
	}

	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func quickConfig(t *testing.T) config {
	return config{seed: 7, seconds: 0.2, outDir: t.TempDir(), setupReps: 1, warmups: 1}
}

func checkNames(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
		} else if v.Unit != d.unit {
			t.Errorf("metric %s: unit %q, declared %q", d.name, v.Unit, d.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s: value %v", d.name, v.Value)
		}
	}
}

// readSpans loads a written trace file back into spans.
func readSpans(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	spans := make([]span, len(tf.TraceEvents))
	for i, e := range tf.TraceEvents {
		start := time.Duration(e.TS * 1e3)
		spans[i] = span{ID: e.Args["id"], Parent: e.Args["parent"], Op: e.Args["op"], Name: e.Name, Tid: e.TID,
			Start: start, End: start + time.Duration(e.Dur*1e3)}
		if spans[i].ID != i+1 {
			t.Fatalf("span %d has id %d", i, spans[i].ID)
		}
	}
	return spans
}

// Every workload emits every declared metric under its declared unit,
// passes its own correctness gate, and leaves a trace whose self times
// add up: on each thread of control, the self times of all spans sum to
// the wall time of that thread's outermost spans, within 5 %.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := quickConfig(t)
			res, err := timedPass(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("timed pass: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, res.Metrics, endToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}

			tres, err := tracedPass(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct {
				t.Errorf("traced pass: %d of %d ops failed", tres.Failed, tres.Attempted)
			}
			checkNames(t, tres.Metrics, perLayer)

			spans := readSpans(t, filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			have := make(map[string]bool)
			selfSum, outerSum := make(map[int]time.Duration), make(map[int]time.Duration)
			for i, self := range selfTimes(spans) {
				s := spans[i]
				have[s.Name] = true
				selfSum[s.Tid] += self
				if s.Parent == 0 || spans[s.Parent-1].Tid != s.Tid {
					outerSum[s.Tid] += s.dur()
				}
			}
			for tid, outer := range outerSum {
				if diff := (selfSum[tid] - outer).Abs(); float64(diff) > 0.05*float64(outer) {
					t.Errorf("tid %d: self times sum to %v, wall time is %v", tid, selfSum[tid], outer)
				}
			}
			want := []string{"workload", "setup", "circuit.build", "circuit.stimulus", "core.seq_ref", "verify", "warmup",
				"probes", "probe.queue.deque", "probe.hj.spawn", "probe.lp.mailbox", "ops", "ops.traced", "op"}
			if w.engine == "" {
				want = append(want, "serve.start", "serve.submit", "serve.queued", "serve.run", "serve.engine", "serve.poll_lag")
			} else {
				want = append(want, "core.engine_new", "core.resilient", "core.run", "probe.core.seq_ref", "probe.core.ckpt")
			}
			for _, n := range want {
				if !have[n] {
					t.Errorf("trace has no %q span", n)
				}
			}
		})
	}
}

// A wrong oracle count must fail every op and the command.
func TestWrongOracleFailsTheRun(t *testing.T) {
	for _, name := range []string{"seq-ks64", "serve-small"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", "0", "-skew-oracle", "1"}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s: exit code 0 with a wrong oracle", name)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: no result line: %v", name, err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every op failed", name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, p50Spread float64, failed int) resultFile {
		rf := resultFile{}
		for _, w := range workloads {
			wr := workloadResult{Name: w.name, Failed: failed, EndToEnd: make(map[string]series)}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = series{Unit: d.unit, Median: 1}
			}
			wr.EndToEnd["op_p50_s"] = series{Unit: "s", Median: p50, Spread: p50Spread}
			rf.Workloads = append(rf.Workloads, wr)
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf resultFile) string {
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1, 0.01, 0))
	for _, tc := range []struct {
		name    string
		rf      resultFile
		worse   bool
		verdict string
	}{
		{"same.json", mk(1.05, 0.01, 0), false, "ok"},
		{"slower.json", mk(1.2, 0.01, 0), true, "worse"},
		{"noisy.json", mk(1.2, 0.3, 0), false, "unresolved"},
		{"failing.json", mk(1, 0.01, 2), true, "ops failed"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.name, tc.rf))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", tc.name, worse, tc.worse, tc.verdict, out.String())
		}
	}
}
