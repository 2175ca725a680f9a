// Package core is nclc's front door: the dual compilation pipeline of
// Fig. 6. Build takes an NCL C/C++ program and an AND file and produces
// (a) the host module — incoming kernels, executed by the host runtime —
// and (b) one PISA program per switch location in the AND, with P4-style
// text for each. The stage structure mirrors the figure:
//
//	frontend (preprocess → parse → sema)
//	lowering (window specialization, unrolling, inlining, SSA)
//	conformance + optimization (fold/CSE/DCE/CFG)
//	IR versioning per AND location
//	codegen (if-conversion, lanes, stateful clustering, scheduling)
//	P4 emission + backend validation (the PISA simulator's Load)
package core

import (
	"fmt"
	"strings"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncl/codegen"
	"ncl/internal/ncl/ir"
	"ncl/internal/ncl/lexer"
	"ncl/internal/ncl/lower"
	"ncl/internal/ncl/parser"
	"ncl/internal/ncl/passes"
	"ncl/internal/ncl/sema"
	"ncl/internal/ncl/source"
	"ncl/internal/ncl/types"
	"ncl/internal/ncp"
	"ncl/internal/p4"
	"ncl/internal/pisa"
	"ncl/internal/runtime"
)

// BuildOptions configures one compilation.
type BuildOptions struct {
	// WindowLen is the window length W the kernels are specialized for
	// (elements per array parameter per window). Default 8.
	WindowLen int
	// Target is the PISA resource model. Zero value = DefaultTarget.
	Target pisa.TargetConfig
	// Includes resolves #include directives.
	Includes map[string]string
	// ModuleName names the build (defaults to "app").
	ModuleName string
	// Batch packs up to this many consecutive windows per NCP packet
	// (§4.2 multi-window packets); 0/1 = one window per packet.
	Batch int
	// SendWorkers shards each host's Out across this many goroutines
	// (0 = GOMAXPROCS, 1 = serial deterministic send order); see
	// runtime.AppConfig.SendWorkers.
	SendWorkers int
	// FabricInboxCap overrides the per-node fabric inbox capacity
	// (0 = netsim.DefaultInboxCap). A full inbox drops and counts
	// fabric.<label>.inbox_drops rather than blocking the sender.
	FabricInboxCap int
}

// StageTiming records one pipeline stage's duration (experiment E6).
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Artifact is a completed build.
type Artifact struct {
	Name           string
	WindowLen      int
	Batch          int
	SendWorkers    int
	FabricInboxCap int
	Target         pisa.TargetConfig

	Info      *sema.Info
	Generic   *ir.Module               // optimized location-agnostic module
	Host      *ir.Module               // incoming kernels
	Programs  map[string]*pisa.Program // per switch label
	P4Text    map[string]string
	P4Stats   map[string]p4.Stats
	KernelIDs map[string]uint32
	Net       *and.Network

	SourceLines int
	Stages      []StageTiming
}

// Build runs the full nclc pipeline.
func Build(nclSrc, andSrc string, opts BuildOptions) (*Artifact, error) {
	if opts.WindowLen <= 0 {
		opts.WindowLen = 8
	}
	if opts.Target.Stages == 0 {
		opts.Target = pisa.DefaultTarget()
	}
	if opts.ModuleName == "" {
		opts.ModuleName = "app"
	}
	art := &Artifact{
		Name:           opts.ModuleName,
		WindowLen:      opts.WindowLen,
		Batch:          opts.Batch,
		SendWorkers:    opts.SendWorkers,
		FabricInboxCap: opts.FabricInboxCap,
		Target:         opts.Target,
		Programs:       map[string]*pisa.Program{},
		P4Text:         map[string]string{},
		P4Stats:        map[string]p4.Stats{},
		KernelIDs:      map[string]uint32{},
	}
	art.SourceLines = strings.Count(nclSrc, "\n") + 1

	stage := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		art.Stages = append(art.Stages, StageTiming{Name: name, Duration: time.Since(start)})
		return err
	}

	// AND file.
	var net *and.Network
	if err := stage("and", func() error {
		var err error
		net, err = and.Parse(andSrc)
		return err
	}); err != nil {
		return nil, err
	}
	art.Net = net

	// Frontend.
	var diags source.DiagList
	var info *sema.Info
	if err := stage("frontend", func() error {
		file := parser.ParseFile(source.NewFile(opts.ModuleName+".ncl", []byte(nclSrc)), lexer.Includes(opts.Includes), &diags)
		info = sema.Check(file, &diags)
		return diags.Err()
	}); err != nil {
		return nil, err
	}
	art.Info = info

	// Kernel placement labels must exist in the AND (conformance).
	for _, f := range info.Kernels() {
		if f.Loc != "" && (net.NodeByLabel(f.Loc) == nil || net.NodeByLabel(f.Loc).Kind != and.SwitchNode) {
			return nil, fmt.Errorf("core: kernel %s is placed _at_(%q), which is not a switch in the AND", f.Name, f.Loc)
		}
	}
	for _, g := range info.Globals {
		if g.Loc != "" && (net.NodeByLabel(g.Loc) == nil || net.NodeByLabel(g.Loc).Kind != and.SwitchNode) {
			return nil, fmt.Errorf("core: state %s is placed _at_(%q), which is not a switch in the AND", g.Name, g.Loc)
		}
	}

	// Lowering.
	var generic *ir.Module
	if err := stage("lower", func() error {
		generic = lower.Lower(opts.ModuleName, info, opts.WindowLen, &diags)
		if err := diags.Err(); err != nil {
			return err
		}
		return ir.Verify(generic)
	}); err != nil {
		return nil, err
	}

	// Optimization.
	if err := stage("optimize", func() error {
		passes.Optimize(generic)
		return ir.Verify(generic)
	}); err != nil {
		return nil, err
	}
	art.Generic = generic

	// Kernel ids: stable order over the generic module.
	for i, f := range generic.Funcs {
		art.KernelIDs[f.Name] = uint32(i + 1)
	}

	// Versioning per AND location.
	var locMods []*ir.Module
	var locs []passes.Location
	if err := stage("version", func() error {
		for _, sw := range net.Switches() {
			locs = append(locs, passes.Location{Label: sw.Label, ID: sw.ID})
		}
		locMods = passes.VersionSwitch(generic, locs, &diags)
		if err := diags.Err(); err != nil {
			return err
		}
		for _, m := range locMods {
			if err := ir.Verify(m); err != nil {
				return fmt.Errorf("location %s: %w", m.Loc, err)
			}
		}
		art.Host = passes.HostModule(generic)
		return ir.Verify(art.Host)
	}); err != nil {
		return nil, err
	}

	// Codegen per location.
	if err := stage("codegen", func() error {
		for _, m := range locMods {
			prog, err := codegen.Compile(m, codegen.Options{Target: opts.Target, KernelIDs: art.KernelIDs})
			if err != nil {
				return fmt.Errorf("location %s: %w", m.Loc, err)
			}
			prog.LocID = locIDOf(locs, m.Loc)
			art.Programs[m.Loc] = prog
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// P4 emission.
	if err := stage("emit-p4", func() error {
		for loc, prog := range art.Programs {
			text, stats := p4.Emit(prog)
			art.P4Text[loc] = text
			art.P4Stats[loc] = stats
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Backend acceptance: load every program into a scratch device (the
	// simulator is the accept/reject oracle of §5).
	if err := stage("backend-check", func() error {
		for loc, prog := range art.Programs {
			sw := pisa.NewSwitch(opts.Target)
			if err := sw.Load(prog); err != nil {
				return fmt.Errorf("location %s: backend rejected: %w", loc, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return art, nil
}

func locIDOf(locs []passes.Location, label string) uint32 {
	for _, l := range locs {
		if l.Label == label {
			return l.ID
		}
	}
	return 0
}

// AppConfig derives the runtime configuration hosts need.
func (a *Artifact) AppConfig() runtime.AppConfig {
	cfg := runtime.AppConfig{
		KernelIDs:   a.KernelIDs,
		OutSpecs:    map[string][]ncp.ParamSpec{},
		WindowLen:   a.WindowLen,
		HostModule:  a.Host,
		Batch:       a.Batch,
		SendWorkers: a.SendWorkers,
	}
	for _, f := range a.Generic.Funcs {
		if f.Kind != ir.OutKernel {
			continue
		}
		var specs []ncp.ParamSpec
		for _, p := range f.WindowSig() {
			et := p.ElemType()
			specs = append(specs, ncp.ParamSpec{
				Elems:  p.Elems(a.WindowLen),
				Bytes:  et.BitWidth() / 8,
				Signed: et.Kind == types.Int && et.Signed,
			})
		}
		cfg.OutSpecs[f.Name] = specs
	}
	for _, wf := range a.Generic.WinFields {
		cfg.UserFields = append(cfg.UserFields, wf.Name)
	}
	sortStrings(cfg.UserFields)
	// A kernel is non-idempotent if its compiled pipeline mutates
	// register state at any location: OutReliable marks its windows
	// FlagExactlyOnce so retransmits cannot double-apply.
	cfg.NonIdempotent = map[string]bool{}
	for _, prog := range a.Programs {
		for _, k := range prog.Kernels {
			if k.MutatesState() {
				cfg.NonIdempotent[k.Name] = true
			}
		}
	}
	return cfg
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
