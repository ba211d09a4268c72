package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is DIR/result.json: every workload's metrics from one
// invocation, with the facts about the host that a number needs to count.
type resultFile struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"` // this benchmark claims no gain
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

type hostFacts struct {
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Workers    int     `json:"workers"` // W: engine workers and service clients
	Seconds    float64 `json:"seconds"` // measured time per run
}

type workloadResult struct {
	Name string `json:"name"`
	// Ops is the timed ops of each run: the sample count behind op_p50_s.
	// P90Beyond is how many of them lie beyond op_p90_s.
	Ops       []int                  `json:"ops"`
	P90Beyond []int                  `json:"p90_samples_beyond"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// series is one end-to-end metric over the runs of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median over the runs; 0 for one run
}

func gatherHost(seed int64, runs int, seconds float64) hostFacts {
	h := hostFacts{
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), GitCommit: "unknown",
		Seed: seed, Runs: runs, Workers: numWorkers(), Seconds: seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// child runs one workload in its own process, so pools, collector state
// and peak memory do not leak from one workload into the next.
func child(exe string, stderr io.Writer, args ...string) (runOutput, error) {
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", strings.Join(args, " "), runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", strings.Join(args, " "), err)
	}
	return res, nil // a run with failed ops exits nonzero but still reports
}

// runSuite runs every workload — runs timed runs and one traced run each —
// prints every metric with its unit and writes outDir/result.json. It
// reports whether any op failed.
func runSuite(stdout, stderr io.Writer, seed int64, runs int, seconds float64, outDir string, skew int64) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	rf := resultFile{Schema: "hjdes-benchmark/1", Host: gatherHost(seed, runs, seconds)}
	anyFailed := false
	for _, w := range workloads {
		args := func(seed int64, trace int) []string {
			return []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-out", outDir, "-skew-oracle", strconv.FormatInt(skew, 10)}
		}
		wr := workloadResult{Name: w.name, EndToEnd: make(map[string]series)}
		for r := 0; r < runs; r++ {
			res, err := child(exe, stderr, args(seed+int64(r), 0)...)
			if err != nil {
				return false, err
			}
			wr.Ops = append(wr.Ops, res.Attempted)
			wr.P90Beyond = append(wr.P90Beyond, res.Attempted/10)
			wr.Failed += res.Failed
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.name]
				s.Unit = d.unit
				s.Values = append(s.Values, res.Metrics[d.name].Value)
				wr.EndToEnd[d.name] = s
			}
		}
		traced, err := child(exe, stderr, args(seed, 1)...)
		if err != nil {
			return false, err
		}
		wr.Failed += traced.Failed
		wr.PerLayer = traced.Metrics
		anyFailed = anyFailed || wr.Failed > 0

		fmt.Fprintf(stdout, "== %s: ops per run %v, %v beyond p90, %d failed\n", w.name, wr.Ops, wr.P90Beyond, wr.Failed)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			s.Median, s.Spread = median(s.Values), spread(s.Values)
			wr.EndToEnd[d.name] = s
			fmt.Fprintf(stdout, "%-30s %14.6g %-6s spread %.3f of bound %.2f\n", d.name, s.Median, d.unit, s.Spread, d.bound)
		}
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.name, wr.PerLayer[d.name].Value, d.unit)
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return anyFailed, nil
}
