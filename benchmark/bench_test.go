package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the whole benchmark at toy size: one 0.2 s trial per
// workload, probes at 1k calls.
func smokeConfig(t *testing.T, log *bytes.Buffer) config {
	cfg := config{seed: 1, trials: 1, trial: 200 * time.Millisecond, endToEnd: true, layers: true,
		probeCalls: 1000, probeReps: 1, outDir: t.TempDir(), log: log}
	for i := range workloads {
		cfg.workloads = append(cfg.workloads, &workloads[i])
	}
	return cfg
}

// TestSmokeMatchesBenchmarkJSON keeps the benchmark compiling against the
// APIs it calls, and keeps what it prints and what BENCHMARK.json promises
// the same set of names, units and directions.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	sameDefs := func(kind string, inFile, inCode []metricDef) {
		if len(inFile) != len(inCode) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(inFile), len(inCode))
		}
		for i := range inCode {
			if inFile[i] != inCode[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, inFile[i], inCode[i])
			}
		}
	}
	sameDefs("end_to_end", file.EndToEnd, endToEnd)
	sameDefs("per_layer", file.PerLayer, perLayer)

	var log bytes.Buffer
	res, err := measure(smokeConfig(t, &log))
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range workloads {
		wr := res.Workloads[wl.name]
		if wr == nil || wr.Failed != 0 || wr.Attempted == 0 {
			t.Fatalf("%s: result %+v", wl.name, wr)
		}
		if !validName.MatchString(wl.name) {
			t.Errorf("workload name %q", wl.name)
		}
		for _, trace := range []int{0, 1} {
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			line, err := json.Marshal(driverLine(wr, trace))
			if err != nil {
				t.Fatal(err)
			}
			var printed struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed.Metrics) != len(defs) {
				t.Errorf("%s trace %d: printed %d metrics, BENCHMARK.json lists %d", wl.name, trace, len(printed.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !validName.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s trace %d: %s not printed", wl.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", wl.name, m.Name, got.Unit, m.Unit)
				case trace == 0 && (got.Value == nil || *got.Value <= 0):
					t.Errorf("%s: end-to-end %s = %v", wl.name, m.Name, got.Value)
				}
				if !strings.Contains(log.String(), m.Name) {
					t.Errorf("%s is not in the text output", m.Name)
				}
			}
		}
		if _, err := os.Stat(wr.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", wl.name, err)
		}
	}
}

// TestWrongSumAborts: a result that arrives but is wrong is not a failed
// op — every workload must refuse to report.
func TestWrongSumAborts(t *testing.T) {
	wrongSum = 1
	defer func() { wrongSum = 0 }()
	for i := range workloads {
		var log bytes.Buffer
		cfg := smokeConfig(t, &log)
		cfg.workloads, cfg.layers = []*workload{&workloads[i]}, false
		if _, err := measure(cfg); !errors.Is(err, errWrong) {
			t.Errorf("%s: a wrong expected sum gave %v, want %v", workloads[i].name, err, errWrong)
		}
	}
}
