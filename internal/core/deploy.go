package core

import (
	"fmt"

	"ncl/internal/and"
	"ncl/internal/controller"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
	"ncl/internal/runtime"
	"ncl/internal/telemetry"
)

// Deployment is a running NCL application: switches loaded with their
// location programs, hosts wired to the runtime, and a controller managing
// state, over one transport — the in-memory fabric or loopback UDP
// sockets. This is the piece the paper leaves to an external deployment
// mechanism (§3.2, Fig. 3c).
type Deployment struct {
	Artifact *Artifact
	// Fabric is the transport when it is the in-memory fabric (link
	// stats, fault and failure injection); nil on a UDP deployment.
	Fabric     *netsim.Fabric
	Controller *controller.Controller
	Hosts      map[string]*runtime.Host
	Switches   map[string]*netsim.SwitchNode
	// Obs aggregates every component's metrics for this deployment: host
	// runtime counters, switch/pisa execution counts, transport queueing
	// and losses, and controller events. Snapshot it for the -metrics
	// surface.
	Obs *obs.Registry

	net transport
}

// transport is the backend seam of Fig. 3a as a deployment sees it: what
// deploy and Stop call on the network under the nodes. *netsim.Fabric and
// *runtime.UDPNet implement it. Anything only some backends have
// (LinkFailed, InboxDepth, FailNode) is asked for by type assertion where
// it is used.
type transport interface {
	netsim.Sender
	Attach(netsim.Node) error
	Start() error
	Stop()
	SetObs(*obs.Registry)
}

// Deploy instantiates the artifact on an in-memory fabric with the given
// fault plan: one switch device per AND switch, one runtime host per AND
// host, programs installed, routes populated.
func (a *Artifact) Deploy(faults netsim.Faults) (*Deployment, error) {
	return a.deploy(a.fabric(a.Net, faults), a.identity())
}

// DeployUDP instantiates the artifact over loopback UDP sockets — the
// paper's Sockets/UDP backend (§6 prototype scope). Control-plane
// operations remain in-process (the out-of-band controller path, §4.1);
// hop timestamps of traced windows read 0 without the simulated fabric's
// virtual clock.
func (a *Artifact) DeployUDP() (*Deployment, error) {
	un, err := runtime.NewUDPNet(a.Net)
	if err != nil {
		return nil, err
	}
	return a.deploy(un, a.identity())
}

// identity is the wiring of a deployment on the overlay itself.
func (a *Artifact) identity() wiring {
	return wiring{ctrl: controller.New(a.Net), cfg: a.AppConfig(), programs: a.Programs, budget: a.Target}
}

// PlacedOptions configures DeployOn: the fault plan plus the placement
// engine's knobs (switch budget, exclusions, forced pins).
type PlacedOptions struct {
	Faults netsim.Faults
	// Budget is the per-switch resource envelope (zero value: the
	// artifact's build target).
	Budget pisa.TargetConfig
	// Exclude removes physical switches from placement consideration.
	Exclude map[string]bool
	// Pin forces logical switch -> physical switch assignments.
	Pin map[string]string
}

// DeployOn instantiates the artifact on a physical network distinct from
// its logical AND overlay — the §3.2 "external mechanism maps the overlay
// onto the physical network" step, made concrete. The placement engine
// assigns each _at_ location to the physical switch minimizing hop count
// to its senders and receivers (subject to resource budgets); routing,
// reflect, and bcast state are rewritten so the overlay's semantics
// survive. Every logical host label must name a physical host; physical
// hosts outside the overlay idle as null endpoints.
func (a *Artifact) DeployOn(phys *and.Network, opts PlacedOptions) (*Deployment, error) {
	budget := opts.Budget
	if budget == (pisa.TargetConfig{}) {
		budget = a.Target
	}
	ctrl, err := controller.NewPlaced(controller.PlaceOptions{
		Logical:  a.Net,
		Physical: phys,
		Programs: a.Programs,
		Budget:   budget,
		Exclude:  opts.Exclude,
		Pin:      opts.Pin,
	})
	if err != nil {
		return nil, err
	}
	return a.deploy(a.fabric(phys, opts.Faults), wiring{
		ctrl: ctrl, cfg: a.AppConfig(), programs: a.Programs, budget: budget,
	})
}

// fabric builds the in-memory transport over net.
func (a *Artifact) fabric(net *and.Network, faults netsim.Faults) *netsim.Fabric {
	fab := netsim.New(net, faults)
	fab.SetInboxCap(a.FabricInboxCap)
	return fab
}

// wiring is what a deployment's constructor decides besides the
// transport: who controls it and what its nodes are made of. The network
// deployed on is the transport's — the overlay itself, or the physical
// network ctrl placed it on.
type wiring struct {
	ctrl *controller.Controller
	// cfg is the host runtime configuration and programs the per-location
	// images the controller installs: the artifact's own, or a tenant's
	// tagged copies.
	cfg      runtime.AppConfig
	programs map[string]*pisa.Program
	// devices holds switch devices that already exist and are shared with
	// other deployments, by label (a tenancy's); a switch not in it gets a
	// device of its own, sized budget.
	devices map[string]*pisa.Switch
	budget  pisa.TargetConfig
}

// deploy is the one place a deployment's nodes are built, attached,
// routed, installed and started. Every error path tears down whatever was
// already brought up — host goroutines, the transport — so a failed
// deployment leaks nothing.
func (a *Artifact) deploy(tr transport, w wiring) (dep *Deployment, err error) {
	reg := obs.NewRegistry()
	w.cfg.Obs = reg
	tr.SetObs(reg)
	dep = &Deployment{
		Artifact:   a,
		Controller: w.ctrl,
		Hosts:      map[string]*runtime.Host{},
		Switches:   map[string]*netsim.SwitchNode{},
		Obs:        reg,
		net:        tr,
	}
	dep.Fabric, _ = tr.(*netsim.Fabric)
	// Tear down on any error: `return nil, err` clears the named dep
	// before this runs, so hold our own reference.
	building := dep
	defer func() {
		if err != nil {
			building.Stop()
		}
	}()
	depths, _ := tr.(interface{ InboxDepth(label string) int })
	phys := tr.Network()
	for _, sw := range phys.Switches() {
		label := sw.Label
		var sn *netsim.SwitchNode
		if dev, shared := w.devices[label]; shared {
			sn = netsim.NewSwitchNodeShared(label, dev)
		} else {
			sn = netsim.NewSwitchNode(label, w.budget)
		}
		dep.Switches[label] = sn
		if depths != nil {
			// INT queue-depth source: the switch's transport inbox.
			sn.SetDepthSource(func() int { return depths.InboxDepth(label) })
		}
		if err = tr.Attach(sn); err != nil {
			return nil, err
		}
		if err = w.ctrl.AttachSwitch(sn); err != nil {
			return nil, err
		}
	}
	w.ctrl.SetObs(reg) // cascades to the attached switches and PISA devices
	nextAll, viaAll := w.ctrl.HostRoutingAll()
	overlay := map[string]bool{}
	for _, hn := range a.Net.Hosts() {
		host := runtime.NewHost(hn.Label, hn.ID, hn.Role, w.cfg, tr, nil)
		host.SetRoutes(nextAll[hn.Label], viaAll[hn.Label])
		dep.Hosts[hn.Label] = host
		overlay[hn.Label] = true
		if err = tr.Attach(host); err != nil {
			return nil, err
		}
	}
	// Physical hosts the overlay does not use still need endpoints.
	for _, hn := range phys.Hosts() {
		if overlay[hn.Label] {
			continue
		}
		if err = tr.Attach(netsim.NewNullNode(hn.Label)); err != nil {
			return nil, err
		}
	}
	if err = w.ctrl.InstallAll(w.programs); err != nil {
		return nil, err
	}
	if err = tr.Start(); err != nil {
		return nil, err
	}
	return dep, nil
}

// FailSwitch simulates losing a physical switch mid-run: fabric traffic
// to and from it blackholes, the controller re-places the locations it
// hosted (replaying their MAT entries and _ctrl_ state onto new homes),
// and every host's routes refresh to the post-failure tables. Requires a
// placed deployment (DeployOn) — an identity deployment has no spare
// switches to move a location to — on a transport that can fail a node.
func (d *Deployment) FailSwitch(label string) error {
	if _, ok := d.Switches[label]; !ok {
		return fmt.Errorf("core: no switch %q", label)
	}
	failer, ok := d.net.(interface{ FailNode(label string) })
	if !ok {
		return fmt.Errorf("core: the %T transport cannot fail a node", d.net)
	}
	failer.FailNode(label)
	if err := d.Controller.Replace(label); err != nil {
		return err
	}
	nextAll, viaAll := d.Controller.HostRoutingAll()
	for l, h := range d.Hosts {
		h.SetRoutes(nextAll[l], viaAll[l])
	}
	return nil
}

// Stop shuts the deployment down. A second call is a no-op.
func (d *Deployment) Stop() {
	for _, h := range d.Hosts {
		h.Close()
	}
	d.net.Stop()
}

// EnableTelemetry turns on the live telemetry plane: every host samples
// one window in sampleEvery for INT stamping (1 traces everything, 0
// disables sampling but still attaches the collector), and a collector
// decodes the sampled windows into this deployment's Obs registry plus
// a flight recorder of recent spans. Returns the collector; serve it
// with telemetry.Serve. Call again to resample; the latest collector
// wins.
func (d *Deployment) EnableTelemetry(sampleEvery int) *telemetry.Collector {
	col := telemetry.NewCollector(d.Obs, 0)
	for _, h := range d.Hosts {
		h.SetTraceEvery(sampleEvery)
		h.SetTraceSink(col.Ingest)
	}
	return col
}
