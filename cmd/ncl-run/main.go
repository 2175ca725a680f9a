// ncl-run is the kernel debugger the paper's future-work section wishes
// for: it compiles an NCL program, loads one location's pipeline into the
// PISA simulator, feeds it a single window from the command line, and
// shows the modified window, the forwarding decision, and every register
// the window touched.
//
// Usage:
//
//	ncl-run -and app.and -kernel allreduce -loc s1 \
//	        -data "1,2,3,4;..." [-meta seq=0,from=0] [-n 3] app.ncl
//
// -data gives one comma-separated element list per window parameter,
// separated by semicolons; -n repeats the window (showing stateful
// evolution across windows).
//
// With -metrics or -trace the tool instead deploys the whole application
// on the in-memory fabric and drives the windows end to end from a
// sender host to a destination (observability mode):
//
//	ncl-run -and app.and -kernel clamp -dest receiver \
//	        -data "1,2,3,4" -n 4 -trace 1 -metrics app.ncl
//
// -trace N samples every Nth window for in-band hop tracing and prints
// each traced window's hop timeline; -metrics dumps the deployment's
// full metrics registry as JSON on exit.
//
// With -serve ADDR the tool becomes a live telemetry target: it deploys
// end to end, keeps re-driving the command-line windows until
// interrupted, and serves /metrics (Prometheus text exposition with
// rolling per-second rates), /snapshot (JSON), /trace (the INT flight
// recorder as JSON Lines), and /debug/pprof/ on ADDR:
//
//	ncl-run -and app.and -kernel clamp -data "1,2,3,4" -serve :9090 app.ncl
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ncl"
	"ncl/internal/core"
	"ncl/internal/ncl/interp"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
	"ncl/internal/telemetry"
)

func main() {
	andPath := flag.String("and", "", "AND file (required)")
	kernel := flag.String("kernel", "", "outgoing kernel to execute (required)")
	loc := flag.String("loc", "", "switch location (default: first switch in the AND)")
	w := flag.Int("w", 8, "window length W")
	data := flag.String("data", "", "window data: per-param comma lists separated by ';'")
	meta := flag.String("meta", "", "window metadata: k=v pairs, comma separated (seq, from, sender, wid, ...)")
	repeat := flag.Int("n", 1, "process the window n times (observe stateful evolution)")
	metrics := flag.Bool("metrics", false, "deploy end to end and print a JSON metrics snapshot on exit")
	traceEvery := flag.Int("trace", 0, "deploy end to end and trace every Nth window (print hop timelines)")
	from := flag.String("from", "", "end-to-end mode: sending host (default: first host in the AND)")
	dest := flag.String("dest", "", "end-to-end mode: destination label (default: last host in the AND)")
	reliable := flag.Bool("reliable", false, "end-to-end mode: send through the reliable sliding-window transport")
	relWindow := flag.Int("rel-window", 0, "reliable transport: max windows in flight (0 = default 32)")
	relTimeout := flag.Duration("rel-timeout", 0, "reliable transport: initial RTO, adapted from measured ack RTT (0 = default 20ms)")
	relRetries := flag.Int("rel-retries", 0, "reliable transport: retransmits per window (0 = default 5)")
	workers := flag.Int("workers", 0, "host send workers for Out (0 = GOMAXPROCS, 1 = serial deterministic order)")
	inboxCap := flag.Int("inbox-cap", 0, "fabric per-node inbox capacity (0 = default 4096; full inboxes drop+count)")
	serve := flag.String("serve", "", "serve /metrics, /snapshot, /trace, and pprof on this address (e.g. :9090) and keep driving windows until interrupted")
	fattree := flag.Int("fattree", 0, "deploy onto a generated k-ary fat-tree physical network via the placement engine (overlay host labels must name fat-tree hosts; implies end-to-end mode)")
	flag.Parse()
	if flag.NArg() != 1 || *andPath == "" || *kernel == "" {
		fmt.Fprintln(os.Stderr, "usage: ncl-run -and <file.and> -kernel <name> [-loc s1] [-data ...] [-metrics] [-trace N] <file.ncl>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	nclSrc, err := os.ReadFile(flag.Arg(0))
	must(err)
	andSrc, err := os.ReadFile(*andPath)
	must(err)

	art, err := ncl.Build(string(nclSrc), string(andSrc), ncl.BuildOptions{
		WindowLen:      *w,
		SendWorkers:    *workers,
		FabricInboxCap: *inboxCap,
	})
	must(err)

	if *metrics || *traceEvery > 0 || *reliable || *serve != "" || *fattree > 0 {
		var ropts *ncl.ReliableOptions
		if *reliable {
			ropts = &ncl.ReliableOptions{Window: *relWindow, Timeout: *relTimeout, Retries: *relRetries}
		}
		runE2E(art, *kernel, *data, *meta, *repeat, *traceEvery, *metrics, *from, *dest, ropts, *serve, *fattree)
		return
	}

	if *loc == "" {
		for l := range art.Programs {
			if *loc == "" || l < *loc {
				*loc = l
			}
		}
	}
	prog, ok := art.Programs[*loc]
	if !ok {
		must(fmt.Errorf("no program for location %q", *loc))
	}
	k := prog.KernelByName(*kernel)
	if k == nil {
		must(fmt.Errorf("kernel %q not present at %q (placed elsewhere?)", *kernel, *loc))
	}

	sw := pisa.NewSwitch(art.Target)
	must(sw.Load(prog))

	// Build the window.
	win := &interp.Window{Meta: map[string]uint64{"len": uint64(*w)}}
	parts := []string{}
	if *data != "" {
		parts = strings.Split(*data, ";")
	}
	for pi, pl := range k.Params {
		vals := make([]uint64, pl.Elems)
		if pi < len(parts) {
			for ei, tok := range strings.Split(parts[pi], ",") {
				if ei >= len(vals) {
					break
				}
				v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
				must(err)
				vals[ei] = uint64(v)
			}
		}
		win.Data = append(win.Data, vals)
	}
	if *meta != "" {
		for _, kv := range strings.Split(*meta, ",") {
			key, val, found := strings.Cut(kv, "=")
			if !found {
				must(fmt.Errorf("bad -meta entry %q", kv))
			}
			v, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
			must(err)
			win.Meta[strings.TrimSpace(key)] = v
		}
	}

	fmt.Printf("kernel %s at %s (id %d, W=%d), %d pass(es)\n",
		k.Name, *loc, k.ID, k.WindowLen, len(k.Passes))
	for i := 0; i < *repeat; i++ {
		dec, err := sw.ExecWindow(k.ID, win)
		must(err)
		fmt.Printf("\nwindow %d -> decision: %s", i+1, dec.Kind)
		if dec.Label != "" {
			fmt.Printf(" (%q)", dec.Label)
		}
		fmt.Println()
		for pi, pl := range k.Params {
			fmt.Printf("  %-12s %v\n", pl.Name+":", formatVals(win.Data[pi], pl.Signed))
		}
	}

	fmt.Println("\nregister state after execution:")
	for _, r := range prog.Registers {
		var nonzero []string
		for i := 0; i < r.Elems && len(nonzero) < 16; i++ {
			v, err := sw.ReadRegister(r.Name, i)
			must(err)
			if v != 0 {
				if r.Signed {
					nonzero = append(nonzero, fmt.Sprintf("[%d]=%d", i, int64(v)))
				} else {
					nonzero = append(nonzero, fmt.Sprintf("[%d]=%d", i, v))
				}
			}
		}
		if len(nonzero) > 0 {
			fmt.Printf("  %-16s %s\n", r.Name, strings.Join(nonzero, " "))
		}
	}
}

// runE2E deploys the application on the in-memory fabric and drives the
// command-line window end to end: sender host -> switches -> destination.
// Traced windows print their hop timelines; -metrics dumps the
// deployment registry as JSON; a non-nil ropts routes the windows
// through the reliable sliding-window transport instead of OutWindow.
// A non-empty serveAddr turns on the live telemetry plane and keeps
// re-driving the windows until SIGINT/SIGTERM so scrapes see moving
// rates. fattree > 0 generates a k-ary fat-tree physical network and
// deploys the overlay onto it through the placement engine.
func runE2E(art *core.Artifact, kernel, data, meta string, repeat, traceEvery int, metrics bool, from, dest string, ropts *ncl.ReliableOptions, serveAddr string, fattree int) {
	hosts := art.Net.Hosts()
	if len(hosts) == 0 {
		must(fmt.Errorf("the AND has no hosts (end-to-end mode needs one)"))
	}
	if from == "" {
		from = hosts[0].Label
	}
	if dest == "" {
		dest = hosts[len(hosts)-1].Label
	}

	var dep *ncl.Deployment
	var err error
	if fattree > 0 {
		var fat *ncl.Network
		fat, err = ncl.FatTree(fattree)
		must(err)
		dep, err = art.DeployOn(fat, ncl.PlacedOptions{})
		must(err)
		pl := dep.Controller.Placement()
		fmt.Printf("placed overlay on k=%d fat-tree (%d switches, %d hosts), cost %d hops:\n",
			fattree, len(fat.Switches()), len(fat.Hosts()), pl.CostHops)
		for _, sw := range art.Net.Switches() {
			fmt.Printf("  %s -> %s\n", sw.Label, pl.Assign[sw.Label])
		}
	} else {
		dep, err = art.Deploy(ncl.Faults{})
		must(err)
	}
	defer dep.Stop()

	sender, ok := dep.Hosts[from]
	if !ok {
		must(fmt.Errorf("no host %q to send from", from))
	}
	if traceEvery > 0 {
		sender.SetTraceEvery(traceEvery)
	}
	if serveAddr != "" {
		// The live telemetry plane: INT sampling on every host (the
		// -trace rate, defaulting to 1-in-8), the collector feeding the
		// deployment registry and flight recorder, and the HTTP surface.
		every := traceEvery
		if every == 0 {
			every = 8
		}
		col := dep.EnableTelemetry(every)
		srv, err := telemetry.Serve(serveAddr, dep.Obs, col.Recorder())
		must(err)
		defer srv.Close()
		fmt.Printf("serving telemetry on http://%s  (/metrics /snapshot /trace /debug/pprof/)\n", srv.Addr)
	}

	cfg := art.AppConfig()
	specs, ok := cfg.OutSpecs[kernel]
	if !ok {
		must(fmt.Errorf("unknown outgoing kernel %q (known: %v)", kernel, cfg.SortedKernelNames()))
	}
	winData := make([][]uint64, len(specs))
	parts := []string{}
	if data != "" {
		parts = strings.Split(data, ";")
	}
	for pi, sp := range specs {
		vals := make([]uint64, sp.Elems)
		if pi < len(parts) {
			for ei, tok := range strings.Split(parts[pi], ",") {
				if ei >= len(vals) {
					break
				}
				v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
				must(err)
				vals[ei] = uint64(v)
			}
		}
		winData[pi] = vals
	}
	inv := ncl.Invocation{Kernel: kernel, Dest: dest}
	if meta != "" {
		inv.User = map[string]uint64{}
		for _, kv := range strings.Split(meta, ",") {
			key, val, found := strings.Cut(kv, "=")
			if !found {
				must(fmt.Errorf("bad -meta entry %q", kv))
			}
			v, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
			must(err)
			inv.User[strings.TrimSpace(key)] = v
		}
	}

	mode := "out-window"
	if ropts != nil {
		mode = fmt.Sprintf("reliable (window=%d)", ropts.Window)
	}
	fmt.Printf("end-to-end: kernel %s, %s -> %s, %d window(s), trace every %d, %s\n",
		kernel, from, dest, repeat, traceEvery, mode)

	if serveAddr != "" {
		driveForever(dep, sender, inv, winData, repeat, dest, ropts)
		if metrics {
			out, err := dep.Obs.Snapshot().JSON()
			must(err)
			fmt.Println(string(out))
		}
		return
	}
	if ropts != nil {
		// Tile the command-line window `repeat` times into full arrays for
		// the array-level reliable transport.
		arrays := make([][]uint64, len(winData))
		for pi := range winData {
			arrays[pi] = make([]uint64, 0, repeat*len(winData[pi]))
			for n := 0; n < repeat; n++ {
				arrays[pi] = append(arrays[pi], winData[pi]...)
			}
		}
		must(sender.OutReliable(inv, arrays, *ropts))
	} else {
		wid := sender.NewWid()
		for seq := 0; seq < repeat; seq++ {
			must(sender.OutWindow(inv, wid, uint32(seq), winData))
		}
	}

	// Collect at the destination (windows consumed on-path — _drop,
	// _reflect — never arrive; stop on the first quiet period).
	if receiver, ok := dep.Hosts[dest]; ok {
		for got := 0; got < repeat; got++ {
			rw, err := receiver.Recv(2 * time.Second)
			if err != nil {
				fmt.Printf("(%d of %d windows arrived; the rest were consumed on-path or dropped)\n", got, repeat)
				break
			}
			fmt.Printf("window seq=%d flags=%s payload=%dB\n", rw.Header.WindowSeq, rw.Header.FlagNames(), len(rw.Raw))
			if len(rw.Trace) > 0 {
				printTrace(rw.Trace)
			}
		}
	}

	if metrics {
		out, err := dep.Obs.Snapshot().JSON()
		must(err)
		fmt.Println(string(out))
	}
}

// driveForever keeps re-sending the command-line windows and draining
// the destination until SIGINT/SIGTERM, so the served metrics show live
// traffic (moving rates, a churning flight recorder) instead of a
// finished run.
func driveForever(dep *ncl.Deployment, sender *ncl.Host, inv ncl.Invocation, winData [][]uint64, repeat int, dest string, ropts *ncl.ReliableOptions) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	receiver := dep.Hosts[dest]
	var sent, received uint64
	lastReport := time.Now()
	for {
		select {
		case <-stop:
			fmt.Printf("\ninterrupted after %d windows sent, %d received\n", sent, received)
			return
		default:
		}
		if ropts != nil {
			if err := sender.OutReliable(inv, winData, *ropts); err != nil {
				must(err)
			}
			sent++
		} else {
			wid := sender.NewWid()
			for seq := 0; seq < repeat; seq++ {
				must(sender.OutWindow(inv, wid, uint32(seq), winData))
				sent++
			}
		}
		if receiver != nil {
			for {
				rw, err := receiver.Recv(20 * time.Millisecond)
				if err != nil {
					break
				}
				received++
				_ = rw
			}
		}
		if time.Since(lastReport) >= 5*time.Second {
			fmt.Printf("driving: %d windows sent, %d received\n", sent, received)
			lastReport = time.Now()
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// printTrace renders a window's hop records as a timeline.
func printTrace(hops []ncp.Hop) {
	fmt.Printf("  trace (%d hops):\n", len(hops))
	for _, h := range hops {
		kind := "host"
		if h.Kind == ncp.HopSwitch {
			kind = "switch"
		}
		fmt.Printf("    %-6s %-4d %-8s %10.3fµs  lat=%dns queue=%d kernel=%d\n",
			kind, h.Loc, h.EventName(), float64(h.TimeNs)/1000,
			h.LatencyNs, h.QueueDepth, h.KernelID)
	}
}

func formatVals(vals []uint64, signed bool) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if signed {
			parts[i] = strconv.FormatInt(int64(v), 10)
		} else {
			parts[i] = strconv.FormatUint(v, 10)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncl-run: %v\n", err)
		os.Exit(1)
	}
}
