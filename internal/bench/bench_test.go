package bench

import (
	"math"
	"os"
	"regexp"
	"testing"

	"ncl/internal/baseline"
)

// TestExperimentsRender runs every entry of the experiment table once at
// its quick size and holds it to the shape ncl-bench prints: a title that
// starts with the entry's ID, a header, at least one row, every cell
// rendered.
func TestExperimentsRender(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("%d header cells, %d rows", len(tb.Header), len(tb.Rows))
			}
			out := tb.Render()
			if !contains(out, e.ID+": ") {
				t.Errorf("render has no %q title:\n%s", e.ID+": ", out)
			}
			for _, cells := range append([][]string{tb.Header}, tb.Rows...) {
				if len(cells) != len(tb.Header) {
					t.Errorf("row %q has %d cells under a %d-cell header", cells, len(cells), len(tb.Header))
				}
				for _, c := range cells {
					if !contains(out, c) {
						t.Errorf("render lacks cell %q", c)
					}
				}
			}
		})
	}
}

// TestDesignIndexMatchesExperiments: DESIGN.md §4's experiment index has
// one row per experiment of the table, and beyond those only E10, which
// is a Go benchmark.
func TestDesignIndexMatchesExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) \|`).FindAllSubmatch(doc, -1) {
		indexed[string(m[1])] = true
	}
	tabled := map[string]bool{"E10": true}
	for _, e := range Experiments {
		tabled[e.ID] = true
		if !indexed[e.ID] {
			t.Errorf("DESIGN.md's experiment index has no row for %s", e.ID)
		}
	}
	for id := range indexed {
		if !tabled[id] {
			t.Errorf("DESIGN.md indexes %s, which is not in bench.Experiments", id)
		}
	}
}

func TestZipfSkewConcentration(t *testing.T) {
	const n = 1024
	uniform := NewZipf(n, 0, 1)
	skewed := NewZipf(n, 0.99, 1)
	countHot := func(keys []uint64) int {
		hot := 0
		for _, k := range keys {
			if k < 32 {
				hot++
			}
		}
		return hot
	}
	u := countHot(uniform.Sample(10000))
	s := countHot(skewed.Sample(10000))
	if s < 3*u {
		t.Errorf("zipf(0.99) should concentrate on hot keys: hot=%d vs uniform %d", s, u)
	}
	// Uniform hot fraction ≈ 32/1024.
	if math.Abs(float64(u)/10000-32.0/1024) > 0.02 {
		t.Errorf("uniform hot fraction off: %d/10000", u)
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := NewZipf(100, 0.9, 42).Sample(50)
	b := NewZipf(100, 0.9, 42).Sample(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zipf sampling must be deterministic per seed")
		}
	}
}

func TestRunINCAllReduceSmall(t *testing.T) {
	art, err := BuildAllReduce(2, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunINCAllReduce(art, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if run.SwitchWins != 4 { // 2 workers × 2 windows
		t.Errorf("switch windows = %d, want 4", run.SwitchWins)
	}
	if run.TotalBytes == 0 || run.Wall <= 0 {
		t.Error("measurements empty")
	}
}

// TestE2Shape: the headline comparison — in-network aggregation absorbs
// traffic the parameter server otherwise ingests, and the gap grows with
// the worker count.
func TestE2Shape(t *testing.T) {
	const dataLen = 64
	for _, workers := range []int{2, 4} {
		art, err := BuildAllReduce(workers, dataLen, 8)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := RunINCAllReduce(art, workers, dataLen)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := baseline.RunPSAllReduce(workers, dataLen, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Every worker's traffic converges on the PS in the baseline; with
		// INC the hottest host link carries only its own share.
		if inc.HostBytes >= ps.HostBytes {
			t.Errorf("workers=%d: INC host bytes %d should undercut PS %d",
				workers, inc.HostBytes, ps.HostBytes)
		}
	}
}

// TestE3Shape: cache hit rate rises with workload skew (NetCache shape).
func TestE3Shape(t *testing.T) {
	const (
		keys     = 512
		cacheCap = 32
		valBytes = 16
		requests = 120
	)
	low, err := RunINCKVS(keys, cacheCap, valBytes, requests, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunINCKVS(keys, cacheCap, valBytes, requests, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if high.Hits <= low.Hits {
		t.Errorf("skewed workload must hit more: %d (s=1.2) vs %d (s=0)", high.Hits, low.Hits)
	}
	if high.ServerHandled >= low.ServerHandled {
		t.Errorf("skewed workload must offload the server: %d vs %d", high.ServerHandled, low.ServerHandled)
	}
	if low.Hits+low.ServerHandled != uint64(requests) {
		t.Errorf("accounting broken: %d + %d != %d", low.Hits, low.ServerHandled, requests)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "long-header"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	for _, want := range []string{"T\n", "long-header", "333", "---"} {
		if !contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestE9Shape: the tree's core-layer traffic is flat in the per-rack
// worker count while a flat star's switch traffic grows linearly.
func TestE9Shape(t *testing.T) {
	small, err := RunHierAllReduce(2, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunHierAllReduce(4, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.CoreUpBytes != small.CoreUpBytes {
		t.Errorf("core-layer traffic must not grow with per-rack workers: %d vs %d",
			small.CoreUpBytes, big.CoreUpBytes)
	}
}
