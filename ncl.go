// Package ncl is the public API of the NCL system — a Go reproduction of
// "Don't You Worry 'Bout a Packet: Unified Programming for In-Network
// Computing" (HotNets '21). It unifies switch and host programming around
// the paper's Compute Centric Communication (C3) model:
//
//   - write computational kernels in NCL (a C/C++ subset with the
//     _net_/_out_/_in_/_ctrl_/_at_ extensions of §4);
//   - describe the overlay in an AND file (§3.2);
//   - Build compiles kernels through the full nclc pipeline (Fig. 6) to
//     per-switch PISA programs plus the host-side module;
//   - Deploy instantiates the application on a simulated fabric, DeployUDP
//     on real loopback UDP sockets: the same Deployment either way, with
//     switches loaded and hosts wired to the libncrt runtime;
//   - hosts invoke outgoing kernels with Host.Out/OutWindow and receive
//     windows through incoming kernels with Host.In, exactly mirroring
//     the paper's ncl::out / ncl::in;
//   - the Controller performs the out-of-band control-plane operations
//     (_ctrl_ writes, ncl::Map entries).
//
// The quickstart in examples/quickstart is the minimal end-to-end tour;
// examples/allreduce and examples/kvcache are the paper's Figs. 4-5 use
// cases running end to end.
package ncl

import (
	"ncl/internal/and"
	"ncl/internal/controller"
	"ncl/internal/core"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
	"ncl/internal/runtime"
	"ncl/internal/telemetry"
)

// BuildOptions configures compilation: window length W, the PISA target
// resources, include resolution, and the module name.
type BuildOptions = core.BuildOptions

// Artifact is a completed build: per-location PISA programs, P4 text,
// the host module, and compile-stage timings.
type Artifact = core.Artifact

// StageTiming is one pipeline stage's compile time.
type StageTiming = core.StageTiming

// Deployment is a running application, over the in-memory fabric
// (Artifact.Deploy, Artifact.DeployOn) or loopback UDP sockets
// (Artifact.DeployUDP; its Fabric field is nil).
type Deployment = core.Deployment

// Network is a parsed or generated AND topology. Artifact.Net is the
// application's logical overlay; FatTree generates physical networks for
// Artifact.DeployOn.
type Network = and.Network

// PlacedOptions configures Artifact.DeployOn: fault injection plus the
// placement engine's knobs (per-switch budgets, exclusions, forced pins).
type PlacedOptions = core.PlacedOptions

// Placement is a logical→physical assignment
// (Deployment.Controller.Placement; on Deploy and DeployUDP, the identity
// one that pins every location to its own switch).
type Placement = controller.Placement

// Host is a libncrt application endpoint.
type Host = runtime.Host

// Invocation names an outgoing-kernel invocation (kernel, destination,
// user window fields).
type Invocation = runtime.Invocation

// RecvWindow is a window delivered to an incoming kernel.
type RecvWindow = runtime.RecvWindow

// ReliableOptions configures Host.OutReliable, the pipelined
// sliding-window reliable transport: acknowledged windows, selective
// retransmission on a timeout adapted from measured ack round trips
// (Timeout is the initial and largest value), an in-flight cap, and
// exactly-once execution negotiated for state-mutating kernels.
type ReliableOptions = runtime.ReliableOptions

// Controller is the control plane: program install, _ctrl_ writes,
// ncl::Map management.
type Controller = controller.Controller

// Faults configures fabric fault injection (loss/duplication/reorder).
type Faults = netsim.Faults

// TargetConfig describes a PISA target's resources.
type TargetConfig = pisa.TargetConfig

// Metrics is a live metrics registry. Every Deployment carries one
// (Deployment.Obs) aggregating host, switch, fabric, and controller
// counters; Snapshot it for export.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time view of a registry, with JSON and
// Text renderings.
type MetricsSnapshot = obs.Snapshot

// Hop is one in-band trace record of a traced window (see
// Host.SetTraceEvery and RecvWindow.Trace).
type Hop = ncp.Hop

// TelemetryCollector decodes sampled INT windows into per-(sender,
// kernel, hop) path-latency and queue-depth histograms plus a bounded
// flight recorder. Deployment.EnableTelemetry wires one up.
type TelemetryCollector = telemetry.Collector

// FlightRecorder is the bounded ring of recent traced window spans the
// collector keeps; serve it at /trace or dump it with WriteJSONL.
type FlightRecorder = telemetry.FlightRecorder

// TelemetryServer is the live telemetry HTTP endpoint (/metrics,
// /snapshot, /trace, /debug/pprof/).
type TelemetryServer = telemetry.Server

// RateWindow derives per-second rates (windows/sec, drops/sec) from
// successive metric snapshots.
type RateWindow = obs.RateWindow

// Tenancy is a multi-tenant INC service: several independently-built
// applications sharing one set of switch devices, with controller
// admission control (the merged footprint must validate against the
// per-stage budgets), priority eviction, and per-tenant metrics
// namespaces. See NewTenancy, Tenancy.AddTenant, Tenancy.RemoveTenant.
type Tenancy = core.Tenancy

// Tenant is one admitted application in a Tenancy: its slot, priority,
// and private deployment (hosts, fabric, controller).
type Tenant = core.Tenant

// TenantEvent is one admission state transition (admit, reject, evict,
// remove) from a Tenancy's controller.
type TenantEvent = controller.TenantEvent

// ErrTenantRejected marks an AddTenant that failed admission control:
// the program set does not fit the remaining switch budgets and no
// lower-priority tenant could be evicted. Test with errors.Is.
var ErrTenantRejected = controller.ErrRejected

// Build compiles an NCL program against an AND overlay description
// through the full nclc pipeline. See BuildOptions for the knobs.
func Build(nclSrc, andSrc string, opts BuildOptions) (*Artifact, error) {
	return core.Build(nclSrc, andSrc, opts)
}

// DefaultTarget returns the default PISA resource model.
func DefaultTarget() TargetConfig { return pisa.DefaultTarget() }

// FatTree generates a k-ary fat-tree physical network: (k/2)² core
// switches, k pods of k/2 aggregation + k/2 edge switches, and k³/4
// hosts labeled h0..h(k³/4-1) with rack labels. Deploy a logical overlay
// onto it with Artifact.DeployOn — the placement engine maps each _at_
// location to a concrete switch.
func FatTree(k int) (*Network, error) { return and.FatTree(k) }

// ServeTelemetry starts the live telemetry endpoint on addr: /metrics
// (Prometheus text exposition with rolling per-second rates), /snapshot
// (JSON), /trace (the flight recorder as JSON Lines), and net/http/pprof.
// Pass Deployment.Obs and the collector's Recorder (nil disables /trace).
func ServeTelemetry(addr string, reg *Metrics, rec *FlightRecorder) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg, rec)
}

// NewRateWindow returns an empty rate window; feed it successive
// snapshots to read per-second deltas.
func NewRateWindow() *RateWindow { return obs.NewRateWindow() }

// NewTenancy creates an empty multi-tenant INC service whose shared
// switch devices all have the given resource budget (zero value: the
// default target). Admit applications with AddTenant.
func NewTenancy(target TargetConfig, faults Faults) *Tenancy {
	return core.NewTenancy(target, faults)
}

// ErrTimeout is returned by Host.In when no window arrives in time.
var ErrTimeout = runtime.ErrTimeout
