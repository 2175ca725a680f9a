// Package controller is the network control plane of the NCL system: the
// ONOS-like component §4.1 alludes to. It installs compiled programs on
// switches, populates routing from the AND mapping (Fig. 3c), manages the
// MAT entries behind ncl::Map (§4.3), and performs the out-of-band writes
// behind _ctrl_ variables. NCL makes no consistency guarantees for these
// updates (§4.1); the controller applies them switch by switch, so
// kernels observe them eventually, not atomically.
//
// Every deployment is a Placement of the overlay onto a physical network
// (placement.go). NewPlaced computes one with the placement engine; New
// deploys on the overlay itself, the degenerate placement whose physical
// network is the overlay and which pins every location to its own switch.
// Either way logical location labels resolve through the assignment,
// routing is the placement's (Placement.RoutingAvoiding), installed on
// every switch and host by the controller alone, and every control write
// is shadowed so a re-placement after a switch failure (Replace) can
// rebuild the moved location's MAT entries and _ctrl_ state on its new
// home.
package controller

import (
	"fmt"
	"maps"
	"sort"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// Controller manages the switches of one deployment and routes its
// switches and hosts.
type Controller struct {
	net      *and.Network // the logical overlay
	switches map[string]*netsim.SwitchNode
	hosts    map[string]Node // overlay hosts, by label

	met    ctrlMetrics
	metReg *obs.Registry // registry met is homed in (SetObs carryover)

	placement *Placement
	opts      PlaceOptions
	programs  map[string]*pisa.Program // last InstallAll input (re-placement)
	failed    map[string]bool          // physical switches taken out by Replace

	// Shadow control state, keyed by *logical* labels: what Replace
	// replays onto a moved location's new switch. MAT entries are per
	// (location, table, key); _ctrl_ writes are global (applied wherever
	// the register lives).
	matShadow  map[string]map[string]map[uint64]uint64
	ctrlShadow map[string]map[int]uint64

	// namePrefix is prepended to every register/table name the control
	// surface resolves (SetNamePrefix). Tenant deployments set it to
	// their pisa.TenantPrefix so application code keeps using the
	// module's own names against a merged multi-tenant device.
	namePrefix string
}

// ctrlMetrics counts control-plane events under controller.*.
type ctrlMetrics struct {
	installs   *obs.Counter // controller.program_installs
	ctrlWrites *obs.Counter // controller.ctrl_writes
	mapInserts *obs.Counter // controller.map_inserts
	mapDeletes *obs.Counter // controller.map_deletes
	replaces   *obs.Counter // controller.replacements
}

func newCtrlMetrics(r *obs.Registry) ctrlMetrics {
	return ctrlMetrics{
		installs:   r.Counter("controller.program_installs"),
		ctrlWrites: r.Counter("controller.ctrl_writes"),
		mapInserts: r.Counter("controller.map_inserts"),
		mapDeletes: r.Counter("controller.map_deletes"),
		replaces:   r.Counter("controller.replacements"),
	}
}

// New creates a controller that deploys on the AND network itself: the
// identity placement, every location pinned to its own switch.
func New(net *and.Network) *Controller {
	opts := PlaceOptions{Logical: net, Physical: net, distCache: map[string]map[string]int{}}
	assign := map[string]string{}
	for _, s := range net.Switches() {
		assign[s.Label] = s.Label
	}
	pl := &Placement{Logical: net, Physical: net, Assign: assign}
	pl.CostHops = placementCost(net, net, assign, opts.distCache)
	return newController(pl, opts)
}

// NewPlaced creates a controller that maps the logical overlay onto a
// physical network via the placement engine. The returned controller's
// Placement reports where each _at_ location landed.
func NewPlaced(opts PlaceOptions) (*Controller, error) {
	// Seed the distance memo: the initial placement warms it, every
	// Replace-triggered re-placement reuses it (c.opts carries the map).
	opts.distCache = map[string]map[string]int{}
	pl, err := Place(opts)
	if err != nil {
		return nil, err
	}
	return newController(pl, opts), nil
}

// newController manages a deployment of pl; opts are what Replace
// re-places with.
func newController(pl *Placement, opts PlaceOptions) *Controller {
	reg := obs.NewRegistry() // private until SetObs
	return &Controller{
		net:        opts.Logical,
		switches:   map[string]*netsim.SwitchNode{},
		hosts:      map[string]Node{},
		met:        newCtrlMetrics(reg),
		metReg:     reg,
		placement:  pl,
		opts:       opts,
		failed:     map[string]bool{},
		matShadow:  map[string]map[string]map[uint64]uint64{},
		ctrlShadow: map[string]map[int]uint64{},
	}
}

// Placement returns the current logical→physical assignment; on a
// deployment made by New, the identity one.
func (c *Controller) Placement() *Placement { return c.placement }

// resolve maps a logical location label to the physical switch holding
// it; a label that is no location resolves to itself.
func (c *Controller) resolve(loc string) string {
	if p, ok := c.placement.Assign[loc]; ok {
		return p
	}
	return loc
}

// SetObs re-homes the controller's event counters into the given
// registry and cascades to every attached switch. Counts accumulated
// before the call — program installs and control writes routinely happen
// before a deployment re-homes the registry — are carried over, so they
// stay visible in -metrics output instead of vanishing with the
// throwaway initial registry.
func (c *Controller) SetObs(r *obs.Registry) {
	if r != c.metReg {
		old := c.met
		c.met = newCtrlMetrics(r)
		c.met.installs.Add(old.installs.Load())
		c.met.ctrlWrites.Add(old.ctrlWrites.Load())
		c.met.mapInserts.Add(old.mapInserts.Load())
		c.met.mapDeletes.Add(old.mapDeletes.Load())
		c.met.replaces.Add(old.replaces.Load())
		c.metReg = r
	}
	for _, sn := range c.switches {
		sn.SetObs(r)
	}
}

// AttachSwitch registers a switch device under its physical label.
func (c *Controller) AttachSwitch(sn *netsim.SwitchNode) error {
	node := c.placement.Physical.NodeByLabel(sn.Label())
	if node == nil || node.Kind != and.SwitchNode {
		return fmt.Errorf("controller: %q is not a switch in the AND", sn.Label())
	}
	c.switches[sn.Label()] = sn
	return nil
}

// Node is what the controller routes: a switch, or a host of the runtime
// (runtime.Host), which it installs a forwarding table on.
type Node interface {
	Label() string
	SetRouting(*netsim.Routes)
}

// AttachHost registers an overlay host. The controller installs its
// forwarding table with every switch's: at InstallAll and after each
// Replace.
func (c *Controller) AttachHost(h Node) error {
	node := c.net.NodeByLabel(h.Label())
	if node == nil || node.Kind != and.HostNode {
		return fmt.Errorf("controller: %q is not a host in the AND", h.Label())
	}
	c.hosts[h.Label()] = h
	return nil
}

// SetNamePrefix makes every control-plane register/table name resolve
// under the given prefix. A tenant deployment over a merged device sets
// pisa.TenantPrefix(id) so CtrlWrite("nworkers", ...) reaches the
// tenant's "id/nworkers" slice — application control code is unchanged
// between single-tenant and multi-tenant deployments.
func (c *Controller) SetNamePrefix(prefix string) { c.namePrefix = prefix }

// InstallAll loads each location's program onto its assigned physical
// switch and populates routing tables, reflect targets and broadcast
// lists on every physical switch (placed or not). A node that wraps a
// shared device records the program as its view and does not load it
// (SwitchNode.Install): a tenant's tagged programs install this way.
func (c *Controller) InstallAll(programs map[string]*pisa.Program) error {
	c.programs = programs
	for _, sw := range c.net.Switches() {
		phys := c.placement.Assign[sw.Label]
		sn, ok := c.switches[phys]
		if !ok {
			return fmt.Errorf("controller: physical switch %s (location %s) not attached", phys, sw.Label)
		}
		prog, ok := programs[sw.Label]
		if !ok {
			return fmt.Errorf("controller: no program for switch %s", sw.Label)
		}
		if err := sn.Install(prog, sw.ID); err != nil {
			return fmt.Errorf("controller: installing %s on %s: %w", sw.Label, phys, err)
		}
		c.met.installs.Inc()
	}
	return c.pushRouting()
}

// pushRouting installs the placement's routing, avoiding failed
// switches, on every physical switch (each must be attached) and every
// attached host.
func (c *Controller) pushRouting() error {
	rt := c.placement.RoutingAvoiding(c.failed)
	for _, ps := range c.placement.Physical.Switches() {
		sn, ok := c.switches[ps.Label]
		if !ok {
			return fmt.Errorf("controller: physical switch %s not attached", ps.Label)
		}
		sn.SetRouting(rt[ps.Label])
	}
	for label, h := range c.hosts {
		h.SetRouting(rt[label])
	}
	return nil
}

// Replace reacts to a physical switch failure: the locations it hosted
// re-place onto the remaining switches (unaffected locations stay put),
// their programs re-install, shadowed MAT entries and _ctrl_ writes
// replay onto the new homes, and routing re-converges around the dead
// switch. Nothing is committed until the re-placement succeeds: when no
// switch can take a moved location (always, on the identity placement,
// which has no spare switch), Replace fails and a later call retries.
// Every attached node, hosts included, is re-routed before it returns.
func (c *Controller) Replace(failedPhys string) error {
	if c.failed[failedPhys] {
		return nil
	}
	failed := maps.Clone(c.failed)
	failed[failedPhys] = true

	var moved []string
	opts := c.opts
	opts.Exclude = maps.Clone(failed)
	for l := range c.opts.Exclude {
		opts.Exclude[l] = true
	}
	// Pin every unaffected location to its current switch: stability is
	// the point (their MAT entries and register state survive in place).
	opts.Pin = map[string]string{}
	for l, p := range c.placement.Assign {
		if failed[p] {
			moved = append(moved, l)
		} else {
			opts.Pin[l] = p
		}
	}
	sort.Strings(moved)
	if len(moved) == 0 {
		c.failed = failed
		return c.pushRouting() // routing still must avoid the dead switch
	}
	pl, err := Place(opts)
	if err != nil {
		return fmt.Errorf("controller: re-placement after %s failed: %w", failedPhys, err)
	}
	c.failed, c.placement = failed, pl

	for _, l := range moved {
		sw := c.net.NodeByLabel(l)
		phys := pl.Assign[l]
		sn, ok := c.switches[phys]
		if !ok {
			return fmt.Errorf("controller: physical switch %s (moved location %s) not attached", phys, l)
		}
		prog, ok := c.programs[l]
		if !ok {
			return fmt.Errorf("controller: no program recorded for moved location %s", l)
		}
		if err := sn.Install(prog, sw.ID); err != nil {
			return fmt.Errorf("controller: re-installing %s on %s: %w", l, phys, err)
		}
		c.met.installs.Inc()
		// Replay the location's MAT entries onto the fresh switch.
		for table, entries := range c.matShadow[l] {
			keys := make([]uint64, 0, len(entries))
			for k := range entries {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				if err := sn.Device().InstallEntry(table, k, entries[k]); err != nil {
					return fmt.Errorf("controller: replaying %s.%s on %s: %w", l, table, phys, err)
				}
			}
		}
		// Replay _ctrl_ writes the new switch's program holds.
		for global, idxs := range c.ctrlShadow {
			if !programHasRegister(prog, global) {
				continue
			}
			idxList := make([]int, 0, len(idxs))
			for i := range idxs {
				idxList = append(idxList, i)
			}
			sort.Ints(idxList)
			for _, i := range idxList {
				if err := sn.Device().WriteRegister(global, i, idxs[i]); err != nil {
					return fmt.Errorf("controller: replaying ctrl %s on %s: %w", global, phys, err)
				}
			}
		}
	}
	c.met.replaces.Inc()
	return c.pushRouting()
}

func programHasRegister(p *pisa.Program, name string) bool {
	for _, r := range p.Registers {
		if r.Name == name {
			return true
		}
	}
	return false
}

// switchesWithRegister returns the attached switches whose loaded program
// declares the named register, sorted by label for determinism. Failed
// switches are skipped — their state is gone with them.
func (c *Controller) switchesWithRegister(name string) []*netsim.SwitchNode {
	var out []*netsim.SwitchNode
	for label, sn := range c.switches {
		if c.failed[label] {
			continue
		}
		p := sn.Device().Program()
		if p == nil {
			continue
		}
		if programHasRegister(p, name) {
			out = append(out, sn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// CtrlWrite sets a _ctrl_ variable (scalar or array element) on every
// switch that holds it — the paper's ncl::ctrl_wr.
func (c *Controller) CtrlWrite(global string, idx int, value uint64) error {
	global = c.namePrefix + global
	sns := c.switchesWithRegister(global)
	if len(sns) == 0 {
		return fmt.Errorf("controller: no switch holds register %q", global)
	}
	for _, sn := range sns {
		if err := sn.Device().WriteRegister(global, idx, value); err != nil {
			return fmt.Errorf("controller: %s: %w", sn.Label(), err)
		}
	}
	if c.ctrlShadow[global] == nil {
		c.ctrlShadow[global] = map[int]uint64{}
	}
	c.ctrlShadow[global][idx] = value
	c.met.ctrlWrites.Inc()
	return nil
}

// ReadRegister reads a register element from the switch at loc (a
// logical location label).
func (c *Controller) ReadRegister(loc, global string, idx int) (uint64, error) {
	sn, ok := c.switches[c.resolve(loc)]
	if !ok {
		return 0, fmt.Errorf("controller: no switch %q", loc)
	}
	return sn.Device().ReadRegister(c.namePrefix+global, idx)
}

// MapInsert installs an ncl::Map entry on the switch at loc (Fig. 5's
// storage-server-managed Idx map). loc is a logical location label.
func (c *Controller) MapInsert(loc, name string, key, val uint64) error {
	name = c.namePrefix + name
	sn, ok := c.switches[c.resolve(loc)]
	if !ok {
		return fmt.Errorf("controller: no switch %q", loc)
	}
	if c.matShadow[loc] == nil {
		c.matShadow[loc] = map[string]map[uint64]uint64{}
	}
	if c.matShadow[loc][name] == nil {
		c.matShadow[loc][name] = map[uint64]uint64{}
	}
	c.matShadow[loc][name][key] = val
	c.met.mapInserts.Inc()
	return sn.Device().InstallEntry(name, key, val)
}

// MapDelete removes an ncl::Map entry (cache eviction, §4.3).
func (c *Controller) MapDelete(loc, name string, key uint64) error {
	name = c.namePrefix + name
	sn, ok := c.switches[c.resolve(loc)]
	if !ok {
		return fmt.Errorf("controller: no switch %q", loc)
	}
	if tables := c.matShadow[loc]; tables != nil && tables[name] != nil {
		delete(tables[name], key)
	}
	c.met.mapDeletes.Inc()
	return sn.Device().DeleteEntry(name, key)
}

// Switch returns the attached switch holding loc (a logical location
// label under placement), or nil.
func (c *Controller) Switch(loc string) *netsim.SwitchNode { return c.switches[c.resolve(loc)] }
