// ncl-bench prints the result tables of EXPERIMENTS.md: the experiments
// of bench.Experiments (DESIGN.md §4), each demonstrating a claim of the
// paper (programmability, in-network aggregation wins, cache load
// absorption, window economics, protocol overhead, compiler feasibility,
// backend portability, recirculation cost, exactly-once reliability under
// faults) or holding a ratio measured within one run to a floor
// (telemetry overhead, placement, fat-tree scale, tenant isolation). It
// times no stage and compares against no recorded number: benchmark/ is
// the timing instrument, scripts/bench_pair.sh the gate.
//
// Usage:
//
//	ncl-bench [-only E3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ncl/internal/bench"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E9, E13, E14, E16..E18)")
	flag.Parse()

	ran := 0
	for _, e := range bench.Experiments {
		if *only != "" && !strings.EqualFold(*only, e.ID) {
			continue
		}
		t, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncl-bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ncl-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
