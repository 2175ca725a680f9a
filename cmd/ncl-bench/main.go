// ncl-bench regenerates the full evaluation of EXPERIMENTS.md: one table
// per table-driven experiment (E1-E9, E11-E18) of DESIGN.md §4. Each
// experiment exercises a claim of the paper (programmability, in-network
// aggregation wins, cache load absorption, window economics, protocol
// overhead, compiler feasibility, backend portability, recirculation
// cost, data-path concurrency, switch data-plane compilation,
// exactly-once reliability under faults, telemetry cost, fabric batching,
// topology-aware placement, fat-tree scale, tenant isolation). E10
// (reliable transport) lives in the Go benchmarks
// (`go test -bench ReliableLossy`).
//
// Usage:
//
//	ncl-bench [-only E3] [-snapshot FILE.json] [-baseline FILE.json] [-max-regress 25]
//
// -snapshot writes the experiments that ran as a JSON array of tables
// (title/header/rows) — the machine-readable baseline CI keeps for the
// performance-sensitive experiments.
//
// -baseline reads such a snapshot back and compares every row that has a
// windows-per-sec column: if the fresh run's ns/window regresses more
// than -max-regress percent (default 25) against the baseline row, the
// run fails. This is CI's performance gate for the switch data plane.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ncl/internal/bench"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E9, E11..E18)")
	snapshot := flag.String("snapshot", "", "write the tables that ran to this file as JSON")
	baseline := flag.String("baseline", "", "compare ns/window against this snapshot and fail on regression")
	maxRegress := flag.Float64("max-regress", 25, "allowed ns/window regression vs -baseline, percent")
	flag.Parse()

	type exp struct {
		id  string
		run func() (*bench.Table, error)
	}
	exps := []exp{
		{"E1", bench.E1Complexity},
		{"E2", bench.E2AllReduce},
		{"E3", bench.E3KVS},
		{"E4", bench.E4WindowSweep},
		{"E5", bench.E5NCP},
		{"E6", bench.E6Compile},
		{"E7", bench.E7Backends},
		{"E8", bench.E8Recirc},
		{"E9", bench.E9Hierarchy},
		{"E11", bench.E11DataPath},
		{"E12", bench.E12SwitchPath},
		{"E13", bench.E13LossyReliable},
		{"E13", bench.E13ReliableGoodput},
		{"E14", bench.E14Telemetry},
		{"E15", bench.E15Fabric},
		{"E16", bench.E16Placement},
		{"E17", bench.E17Scale},
		{"E18", bench.E18Tenancy},
	}
	type snap struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	var snaps []snap
	ran := 0
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncl-bench: %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		snaps = append(snaps, snap{ID: e.id, Title: t.Title, Header: t.Header, Rows: t.Rows})
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ncl-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	if *snapshot != "" {
		out, err := json.MarshalIndent(snaps, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncl-bench: snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*snapshot, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ncl-bench: snapshot: %v\n", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		fresh := make([]snapTable, len(snaps))
		for i, s := range snaps {
			fresh[i] = snapTable(s)
		}
		if !compareBaseline(*baseline, fresh, *maxRegress) {
			os.Exit(1)
		}
	}
}

// snapTable mirrors the snapshot JSON schema for the regression guard.
type snapTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// compareBaseline checks every (experiment, row-label) pair present in
// both the baseline file and the fresh run that carries a
// windows-per-sec column, converting to ns/window and failing the run
// when the fresh value regresses more than maxRegress percent. Rows only
// in one side are skipped — engines may come and go — but a baseline
// experiment whose fresh counterpart ran must compare at least one row.
func compareBaseline(path string, fresh []snapTable, maxRegress float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncl-bench: baseline: %v\n", err)
		return false
	}
	var base []snapTable
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "ncl-bench: baseline: %v\n", err)
		return false
	}
	wpsCol := func(t snapTable) int {
		for i, h := range t.Header {
			if h == "windows-per-sec" {
				return i
			}
		}
		return -1
	}
	nsPerWin := func(cell string) (float64, bool) {
		wps, err := strconv.ParseFloat(cell, 64)
		if err != nil || wps <= 0 {
			return 0, false
		}
		return 1e9 / wps, true
	}
	ok := true
	for _, bt := range base {
		bc := wpsCol(bt)
		if bc < 0 {
			continue
		}
		for _, ft := range fresh {
			if ft.ID != bt.ID {
				continue
			}
			fc := wpsCol(ft)
			if fc < 0 {
				continue
			}
			compared := 0
			for _, br := range bt.Rows {
				for _, fr := range ft.Rows {
					if len(br) == 0 || len(fr) == 0 || br[0] != fr[0] {
						continue
					}
					bns, okB := nsPerWin(br[bc])
					fns, okF := nsPerWin(fr[fc])
					if !okB || !okF {
						continue
					}
					compared++
					delta := 100 * (fns - bns) / bns
					status := "ok"
					if delta > maxRegress {
						status = "REGRESSION"
						ok = false
					}
					fmt.Printf("%s %-30s %8.1f ns/win -> %8.1f ns/win  %+6.1f%%  %s\n",
						bt.ID, fr[0], bns, fns, delta, status)
				}
			}
			if compared == 0 {
				fmt.Fprintf(os.Stderr, "ncl-bench: baseline: %s has no comparable rows\n", bt.ID)
				ok = false
			}
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "ncl-bench: performance regressed more than %.0f%% vs %s\n", maxRegress, path)
	}
	return ok
}
