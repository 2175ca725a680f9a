package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, for every workload and end-to-end metric of two
// results.json files, both reported values, their relative difference, the
// bound and a verdict:
//
//	unresolved  either side's samples leave its value in doubt by more
//	            than the bound (summary.spread)
//	differ      the values are further apart than the bound
//	agree       otherwise
//
// It fails when the files do not hold the same workloads.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %d x %.2f s\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Trials, a.Env.TrialS)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %d x %.2f s\n\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Trials, b.Env.TrialS)
	fmt.Fprintf(w, "%-25s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "b vs a", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is in only one of the files", wl.name)
		}
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			diff := (sb.Value - sa.Value) / sa.Value
			verdict := "agree"
			switch {
			case sa.N == 0 || sb.N == 0:
				verdict = "missing"
			case sa.spread(m) > m.Bound || sb.spread(m) > m.Bound:
				verdict = "unresolved"
			case math.Abs(diff) > m.Bound:
				verdict = "differ"
			}
			fmt.Fprintf(w, "%-25s %-22s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", wl.name, m.Name, sa.Value, sb.Value, 100*diff, 100*m.Bound, verdict)
		}
		verdict := "agree"
		if ra.Failed != 0 || rb.Failed != 0 {
			verdict = "differ"
		}
		fmt.Fprintf(w, "%-25s %-22s %14d %14d %8s %7s  %s\n", wl.name, "failed", ra.Failed, rb.Failed, "", "0", verdict)
	}
	return nil
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
