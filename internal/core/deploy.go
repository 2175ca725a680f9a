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

// Deployment is a running NCL application on the simulated fabric:
// switches loaded with their location programs, hosts wired to the
// runtime, and a controller managing state. This is the piece the paper
// leaves to an external deployment mechanism (§3.2, Fig. 3c).
type Deployment struct {
	Artifact   *Artifact
	Fabric     *netsim.Fabric
	Controller *controller.Controller
	Hosts      map[string]*runtime.Host
	Switches   map[string]*netsim.SwitchNode
	// Obs aggregates every component's metrics for this deployment: host
	// runtime counters, switch/pisa execution counts, fabric queueing,
	// and controller events. Snapshot it for the -metrics surface.
	Obs *obs.Registry
}

// Deploy instantiates the artifact on an in-memory fabric with the given
// fault plan: one switch device per AND switch, one runtime host per AND
// host, programs installed, routes populated.
func (a *Artifact) Deploy(faults netsim.Faults) (*Deployment, error) {
	return a.deployFabric(controller.New(a.Net), a.Net, faults,
		func(string) pisa.TargetConfig { return a.Target }, nil)
}

// deployHooks customizes deployFabric for non-standard deployments (the
// multi-tenant path). Every field is optional; nil means the standard
// behavior.
type deployHooks struct {
	// newNode builds the switch node for a physical switch label
	// (default: a fresh device per node from the budget function). The
	// tenancy path returns shared-device nodes here.
	newNode func(label string) *netsim.SwitchNode
	// install installs programs through the controller (default:
	// ctrl.InstallAll(a.Programs)). The tenancy path installs per-tenant
	// tagged views without touching the shared devices.
	install func(ctrl *controller.Controller) error
	// editCfg adjusts the host runtime config before any host is built
	// (the tenancy path tags kernel ids and sets the metrics prefix).
	editCfg func(cfg *runtime.AppConfig)
}

// PlacedOptions configures DeployOn: the fault plan plus the placement
// engine's knobs (per-switch budgets, exclusions, forced pins).
type PlacedOptions struct {
	Faults netsim.Faults
	// Budget is the per-switch resource envelope (zero value: the
	// artifact's build target); Budgets overrides it per physical switch.
	Budget  pisa.TargetConfig
	Budgets map[string]pisa.TargetConfig
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
		Budgets:  opts.Budgets,
		Exclude:  opts.Exclude,
		Pin:      opts.Pin,
	})
	if err != nil {
		return nil, err
	}
	budgetFor := func(label string) pisa.TargetConfig {
		if t, ok := opts.Budgets[label]; ok {
			return t
		}
		return budget
	}
	return a.deployFabric(ctrl, phys, opts.Faults, budgetFor, nil)
}

// deployFabric builds a running deployment over net (the physical network;
// for identity deployments the overlay itself). Every error path tears
// down whatever was already brought up — host goroutines, the fabric —
// so a failed Deploy leaks nothing.
func (a *Artifact) deployFabric(ctrl *controller.Controller, net *and.Network, faults netsim.Faults, budgetFor func(label string) pisa.TargetConfig, hooks *deployHooks) (dep *Deployment, err error) {
	if hooks == nil {
		hooks = &deployHooks{}
	}
	reg := obs.NewRegistry()
	cfg := a.AppConfig()
	cfg.Obs = reg
	if hooks.editCfg != nil {
		hooks.editCfg(&cfg)
	}
	fab := netsim.New(net, faults)
	fab.SetObs(reg)
	fab.SetInboxCap(cfg.FabricInboxCap)
	dep = &Deployment{
		Artifact:   a,
		Fabric:     fab,
		Controller: ctrl,
		Hosts:      map[string]*runtime.Host{},
		Switches:   map[string]*netsim.SwitchNode{},
		Obs:        reg,
	}
	// Tear down on any error: `return nil, err` clears the named dep
	// before this runs, so hold our own reference.
	building := dep
	defer func() {
		if err != nil {
			building.Stop()
		}
	}()
	for _, sw := range net.Switches() {
		var sn *netsim.SwitchNode
		if hooks.newNode != nil {
			sn = hooks.newNode(sw.Label)
		} else {
			sn = netsim.NewSwitchNode(sw.Label, budgetFor(sw.Label))
		}
		dep.Switches[sw.Label] = sn
		// INT queue-depth source: the switch's fabric inbox.
		label := sw.Label
		sn.SetDepthSource(func() int { return fab.InboxDepth(label) })
		if err = fab.Attach(sn); err != nil {
			return nil, err
		}
		if err = ctrl.AttachSwitch(sn); err != nil {
			return nil, err
		}
	}
	ctrl.SetObs(reg) // cascades to the attached switches and PISA devices
	nextAll, viaAll := ctrl.HostRoutingAll()
	overlay := map[string]bool{}
	for _, hn := range a.Net.Hosts() {
		host := runtime.NewHost(hn.Label, hn.ID, hn.Role, cfg, fab, nil)
		host.SetRoutes(nextAll[hn.Label], viaAll[hn.Label])
		dep.Hosts[hn.Label] = host
		overlay[hn.Label] = true
		if err = fab.Attach(host); err != nil {
			return nil, err
		}
	}
	// Physical hosts the overlay does not use still need fabric endpoints.
	for _, hn := range net.Hosts() {
		if overlay[hn.Label] {
			continue
		}
		if err = fab.Attach(netsim.NewNullNode(hn.Label)); err != nil {
			return nil, err
		}
	}
	if hooks.install != nil {
		err = hooks.install(ctrl)
	} else {
		err = ctrl.InstallAll(a.Programs)
	}
	if err != nil {
		return nil, err
	}
	if err = fab.Start(); err != nil {
		return nil, err
	}
	return dep, nil
}

// FailSwitch simulates losing a physical switch mid-run: fabric traffic
// to and from it blackholes, the controller re-places the locations it
// hosted (replaying their MAT entries and _ctrl_ state onto new homes),
// and every host's routes refresh to the post-failure tables. Requires a
// placed deployment (DeployOn) — an identity deployment has no spare
// switches to move a location to.
func (d *Deployment) FailSwitch(label string) error {
	if _, ok := d.Switches[label]; !ok {
		return fmt.Errorf("core: no switch %q", label)
	}
	d.Fabric.FailNode(label)
	if err := d.Controller.Replace(label); err != nil {
		return err
	}
	nextAll, viaAll := d.Controller.HostRoutingAll()
	for l, h := range d.Hosts {
		h.SetRoutes(nextAll[l], viaAll[l])
	}
	return nil
}

// UDPDeployment runs the application over real loopback UDP sockets —
// the paper's Sockets/UDP backend (§6 prototype scope).
type UDPDeployment struct {
	Artifact   *Artifact
	Net        *runtime.UDPNet
	Controller *controller.Controller
	Hosts      map[string]*runtime.Host
	Switches   map[string]*netsim.SwitchNode
	Obs        *obs.Registry
}

// DeployUDP instantiates the artifact over UDP sockets. Control-plane
// operations remain in-process (the out-of-band controller path, §4.1).
func (a *Artifact) DeployUDP() (*UDPDeployment, error) {
	un, err := runtime.NewUDPNet(a.Net)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ctrl := controller.New(a.Net)
	dep := &UDPDeployment{
		Artifact:   a,
		Net:        un,
		Controller: ctrl,
		Hosts:      map[string]*runtime.Host{},
		Switches:   map[string]*netsim.SwitchNode{},
		Obs:        reg,
	}
	cfg := a.AppConfig()
	cfg.Obs = reg
	cleanup := func() { dep.Stop() }
	for _, sw := range a.Net.Switches() {
		sn := netsim.NewSwitchNode(sw.Label, a.Target)
		dep.Switches[sw.Label] = sn
		if err := un.Attach(sn); err != nil {
			cleanup()
			return nil, err
		}
		if err := ctrl.AttachSwitch(sn); err != nil {
			cleanup()
			return nil, err
		}
	}
	ctrl.SetObs(reg)
	hops := a.Net.NextHops()
	for _, hn := range a.Net.Hosts() {
		host := runtime.NewHost(hn.Label, hn.ID, hn.Role, cfg, un, hops[hn.Label])
		dep.Hosts[hn.Label] = host
		if err := un.Attach(host); err != nil {
			cleanup()
			return nil, err
		}
	}
	if err := ctrl.InstallAll(a.Programs); err != nil {
		cleanup()
		return nil, err
	}
	if err := un.Start(); err != nil {
		cleanup()
		return nil, err
	}
	return dep, nil
}

// Stop shuts the UDP deployment down.
func (d *UDPDeployment) Stop() {
	for _, h := range d.Hosts {
		h.Close()
	}
	d.Net.Stop()
}

// Host returns the named host or an error.
func (d *Deployment) Host(label string) (*runtime.Host, error) {
	h, ok := d.Hosts[label]
	if !ok {
		return nil, fmt.Errorf("core: no host %q", label)
	}
	return h, nil
}

// Stop shuts the deployment down.
func (d *Deployment) Stop() {
	for _, h := range d.Hosts {
		h.Close()
	}
	d.Fabric.Stop()
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

// EnableTelemetry is the UDP-backend variant of
// Deployment.EnableTelemetry (hop timestamps read 0 without the
// simulated fabric's virtual clock; queue depths and kernel ids still
// flow).
func (d *UDPDeployment) EnableTelemetry(sampleEvery int) *telemetry.Collector {
	col := telemetry.NewCollector(d.Obs, 0)
	for _, h := range d.Hosts {
		h.SetTraceEvery(sampleEvery)
		h.SetTraceSink(col.Ingest)
	}
	return col
}

// SwitchFor returns the switch node for an AND label.
func (d *Deployment) SwitchFor(label string) (*netsim.SwitchNode, error) {
	sn, ok := d.Switches[label]
	if !ok {
		return nil, fmt.Errorf("core: no switch %q", label)
	}
	return sn, nil
}
