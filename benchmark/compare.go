package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints, for every workload and end-to-end metric, A's and
// B's medians, how much worse B is as a share of A, the bound, and a
// verdict: "unresolved" when either side's run-to-run spread is wider
// than the bound (the medians cannot settle the question), "worse" when
// B is worse than A by more than the bound, else "ok". A workload that
// failed ops in B is worse whatever its timings. It reports whether any
// row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	byName := make(map[string]workloadResult)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "A: %s (%s, nproc %d, %d runs)\nB: %s (%s, nproc %d, %d runs)\n",
		pathA, a.Host.GitCommit, a.Host.Nproc, a.Host.Runs, pathB, b.Host.GitCommit, b.Host.Nproc, b.Host.Runs)
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %18s %6s  %s\n", "workload", "metric", "A", "B", "B worse by (of A)", "bound", "verdict")
	anyWorse := false
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s: workload %s missing", pathB, wa.Name)
		}
		if wb.Failed > 0 {
			anyWorse = true
			fmt.Fprintf(w, "%-14s %d ops failed in B: worse\n", wa.Name, wb.Failed)
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worseBy := ratio(sb.Median-sa.Median, sa.Median)
			if d.better == "higher" {
				worseBy = -worseBy
			}
			verdict := "ok"
			switch {
			case max(sa.Spread, sb.Spread) > d.bound:
				verdict = "unresolved"
			case worseBy > d.bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+17.2f%% %6.2f  %s\n",
				wa.Name, d.name, sa.Median, sb.Median, 100*worseBy, d.bound, verdict)
		}
	}
	return anyWorse, nil
}
