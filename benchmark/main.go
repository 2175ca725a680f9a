// Command benchmark is the repository's one end-to-end benchmark: five
// closed-loop C3 workloads driven through the root ncl facade, probes of
// every layer, and a traced run. See README.md.
//
//	go run ./benchmark                         all workloads, end to end and per layer
//	go run ./benchmark -workload kvs_get -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -probes
//	go run ./benchmark -compare a/results.json b/results.json
//
// With -workload the last line of standard output is the one-object JSON
// result BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	trials      = 5                      // fresh Build+Deploy per trial
	warmUp      = 500 * time.Millisecond // discarded at the start of every trial
	minTrial    = 2 * time.Second        // a full set shortens trials to fit a time cap, never below this
	probeBuild  = 11                     // builds and deploys timed by the probes
	extraSetups = 2                      // set-ups timed after each trial, besides the trial's own
)

// config is everything a run is parameterized by.
type config struct {
	workloads  []*workload
	seed       int64
	trials     int
	trial      time.Duration // measured time per trial
	endToEnd   bool          // run the untraced trials
	layers     bool          // run the probes and the traced trial
	probeCalls int
	probeReps  int
	outDir     string
	log        io.Writer // progress and tables
}

// environment is the header every result starts with.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Trials     int     `json:"trials"`
	TrialS     float64 `json:"trial_seconds"`
	WarmUpS    float64 `json:"warm_up_seconds"`
}

// workloadResult is one workload's share of results.json.
type workloadResult struct {
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	EndToEnd  map[string]summary  `json:"end_to_end,omitempty"`
	PerLayer  map[string]*float64 `json:"per_layer,omitempty"`
	Stack     []stackLine         `json:"stack,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

type results struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all)")
		seed    = flag.Int64("seed", 1, "seeds the gradients, the zipf stream and the fault plan (2 is reserved for hold-out checks)")
		seconds = flag.Int("seconds", 20, "measured seconds per workload, split over 5 trials")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: probes and traced trial only (default: both)")
		probes  = flag.Bool("probes", false, "run only the layer probes")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
		outDir  = flag.String("out", "benchmark/out", "directory for results.json and trace files")
	)
	flag.Parse()
	// The load is sized to the machine: never more than two generators,
	// never more processors than generators.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := run(*name, *seed, *seconds, *trace, *probes, *compare, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, probes, compare bool, outDir string) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results.json files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	cfg := config{seed: seed, trials: trials, trial: time.Duration(seconds) * time.Second / trials,
		endToEnd: trace != 1, layers: trace != 0, probeCalls: probeCalls, probeReps: probeBuild, outDir: outDir, log: os.Stdout}
	if cfg.trial < minTrial {
		return fmt.Errorf("-seconds %d gives %v trials; the shortest is %v", seconds, cfg.trial, minTrial)
	}
	if probes {
		v, err := runProbes(cfg.probeCalls, cfg.probeReps)
		if err != nil {
			return err
		}
		printLayer(os.Stdout, "probes", v)
		return nil
	}
	for i := range workloads {
		if name == "" || workloads[i].name == name {
			cfg.workloads = append(cfg.workloads, &workloads[i])
		}
	}
	if len(cfg.workloads) == 0 {
		return fmt.Errorf("no workload %q", name)
	}
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), res); err != nil {
		return err
	}
	if name != "" {
		return json.NewEncoder(os.Stdout).Encode(driverLine(res.Workloads[name], trace))
	}
	return nil
}

// measure runs the untraced trials — round-robin across workloads, so
// machine drift hits all alike — and then the probes and the traced run
// of every workload.
func measure(cfg config) (*results, error) {
	res := &results{Env: describe(cfg), Workloads: map[string]*workloadResult{}}
	printEnv(cfg.log, res.Env)
	for _, wl := range cfg.workloads {
		res.Workloads[wl.name] = &workloadResult{}
	}

	if cfg.endToEnd {
		// The first trial of a process runs on cold code and a cold heap and
		// is reliably the slowest: spend it before measuring.
		for _, wl := range cfg.workloads {
			if _, err := runTrial(wl, cfg.seed, 0, warmUpFor(cfg.trial), false); err != nil {
				return nil, err
			}
		}
		perTrial := map[string]map[string][]float64{}
		for _, wl := range cfg.workloads {
			perTrial[wl.name] = map[string][]float64{}
		}
		for t := 0; t < cfg.trials; t++ {
			for _, wl := range cfg.workloads {
				seed := cfg.seed*100 + int64(t)
				tr, err := runTrial(wl, seed, warmUpFor(cfg.trial), cfg.trial, false)
				if err != nil {
					return nil, err
				}
				wr, per := res.Workloads[wl.name], perTrial[wl.name]
				wr.Attempted += tr.ops
				wr.Failed += tr.failed
				if tr.failure != nil {
					fmt.Fprintf(cfg.log, "WARNING %s trial %d: %v\n", wl.name, t, tr.failure)
					continue
				}
				for k, x := range tr.trialValues() {
					per[k] = append(per[k], x)
				}
				for _, second := range tr.sliceValues() {
					for k, x := range second {
						per[k] = append(per[k], x)
					}
				}
				// Set-up is milliseconds against seconds of traffic: repeat it
				// so setup_s is a median of 3 per trial, not of 1.
				for i := 0; i < extraSetups; i++ {
					d, err := timeSetup(wl, seed)
					if err != nil {
						return nil, err
					}
					per["setup_s"] = append(per["setup_s"], d.Seconds())
				}
				fmt.Fprintf(cfg.log, "trial %d %-25s %9.0f windows/s  %d ops  set-up %.1f ms\n", t, wl.name,
					float64(tr.windows)/tr.wall.Seconds(), tr.ops, 1e3*tr.setup.Seconds())
			}
		}
		for _, wl := range cfg.workloads {
			wr := res.Workloads[wl.name]
			wr.EndToEnd = map[string]summary{}
			fmt.Fprintf(cfg.log, "\n%s  (GOMAXPROCS %d; reported value: median [q1, q3] of n samples; %d ops attempted, failed_share %.4f)\n", wl.name,
				wl.gomaxprocs(), wr.Attempted, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
			for _, m := range endToEnd {
				s := summarize(m, perTrial[wl.name][m.Name])
				wr.EndToEnd[m.Name] = s
				how := "median"
				if bestSecond[m.Name] {
					how = "best second"
				}
				fmt.Fprintf(cfg.log, "  %-24s %14.4f %-5s: %.4f [%.4f, %.4f]  n=%d  (%s, %s is better)\n", m.Name, s.Value, m.Unit,
					s.Median, s.Q1, s.Q3, s.N, how, m.Better)
			}
		}
	}

	if cfg.layers {
		probed, err := runProbes(cfg.probeCalls, cfg.probeReps)
		if err != nil {
			return nil, err
		}
		for _, wl := range cfg.workloads {
			v, wr := values{}, res.Workloads[wl.name]
			for k, x := range probed {
				v[k] = x
			}
			if err := tracedRun(cfg, wl, v, wr); err != nil {
				return nil, err
			}
			wr.PerLayer = map[string]*float64{}
			for _, m := range perLayer {
				x, ok := v[m.Name]
				if !ok {
					return nil, fmt.Errorf("layer metric %s was not measured", m.Name)
				}
				wr.PerLayer[m.Name] = nil // JSON null
				if finite(x) {
					wr.PerLayer[m.Name] = &x
				}
			}
			printLayer(cfg.log, wl.name, v)
		}
	}
	return res, nil
}

// tracedRun alternates untraced and traced trials of the workload
// (plain, traced, plain, traced — a quarter of the workload's measured
// time each, so drift hits both alike), fills in the span- and
// counter-backed layer metrics from the last traced trial and writes its
// trace file.
func tracedRun(cfg config, wl *workload, v values, wr *workloadResult) error {
	quarter := cfg.trial * time.Duration(cfg.trials) / 4
	var tr *trialResult
	var windows, seconds [2]float64 // untraced, traced
	for i := 0; i < 4; i++ {
		t, err := runTrial(wl, cfg.seed, warmUpFor(quarter), quarter, i%2 == 1)
		if err != nil {
			return err
		}
		wr.Attempted += t.ops
		wr.Failed += t.failed
		if t.failure != nil {
			return fmt.Errorf("%s: traced run: %w", wl.name, t.failure)
		}
		windows[i%2] += float64(t.windows)
		seconds[i%2] += t.wall.Seconds()
		tr = t
	}
	untraced := windows[0] / seconds[0]
	v["trace.overhead_pct"] = 100 * (untraced - windows[1]/seconds[1]) / untraced

	for k, x := range counterValues(tr) {
		v[k] = x
	}
	for _, name := range wl.nonZero {
		if v[name] == 0 {
			v[name] = math.NaN()
		}
	}
	perWindow := func(k spanKind) float64 {
		var self time.Duration
		for _, l := range tr.logs {
			self += l.self[k]
		}
		return float64(self) / float64(tr.windows)
	}
	v["runtime.out_ns_per_window"] = perWindow(spanOut) + perWindow(spanOutWindow)
	v["runtime.outreliable_ns_per_window"] = perWindow(spanOutReliable)
	v["runtime.goroutines_peak"] = float64(tr.goroutinesPeak)
	var depths []float64
	for _, l := range tr.logs {
		depths = append(depths, l.depths...)
	}
	v["netsim.hop_queue_depth_p99"] = 0 // when no traced window came back (push-only rounds)
	if len(depths) > 0 {
		v["netsim.hop_queue_depth_p99"] = quantile(depths, 0.99)
	}

	var sum, measured float64
	var err error
	wr.Stack, sum, measured = stack(tr.logs, tr.windows, tr.wall)
	printStack(cfg.log, wl.name, wr.Stack, sum, measured)
	wr.TraceFile, err = writeTrace(cfg.outDir, wl.name, tr)
	return err
}

func warmUpFor(trial time.Duration) time.Duration { return min(warmUp, trial/4) }

// driverLine is the result object the BENCHMARK.json driver reads: with
// trace 0 every end-to-end metric, with trace 1 every per-layer metric.
func driverLine(wr *workloadResult, trace int) map[string]any {
	type metric struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	metrics := map[string]metric{}
	if trace == 1 {
		for _, m := range perLayer {
			metrics[m.Name] = metric{wr.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			x := wr.EndToEnd[m.Name].Value
			metrics[m.Name] = metric{&x, m.Unit}
		}
	}
	return map[string]any{"correct": true, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func printLayer(w io.Writer, title string, v values) {
	fmt.Fprintf(w, "\nper-layer metrics, %s\n", title)
	for _, m := range perLayer {
		x, ok := v[m.Name]
		switch {
		case !ok:
		case !finite(x):
			fmt.Fprintf(w, "  %-44s %14s %s\n", m.Name, "null", m.Unit)
			fmt.Fprintf(w, "WARNING %s: the program's counter is missing, or zero where this workload cannot leave it zero\n", m.Name)
		default:
			fmt.Fprintf(w, "  %-44s %14.3f %s\n", m.Name, x, m.Unit)
		}
	}
}

func describe(cfg config) environment {
	env := environment{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Seed: cfg.seed, Trials: cfg.trials, TrialS: cfg.trial.Seconds(), WarmUpS: warmUpFor(cfg.trial).Seconds()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" { // go run does not stamp the binary
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	return env
}

func printEnv(w io.Writer, e environment) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q\n", e.Commit, e.Go, e.NumCPU, e.GOMAXPROCS, e.CPU)
	fmt.Fprintf(w, "seed %d  %d trials x %.2f s measured (+%.2f s warm-up discarded), closed loop, in-memory fabric\n\n",
		e.Seed, e.Trials, e.TrialS, e.WarmUpS)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
