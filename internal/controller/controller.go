// Package controller is the network control plane of the NCL system: the
// ONOS-like component §4.1 alludes to. It installs compiled programs on
// switches, populates routing from the AND mapping (Fig. 3c), manages the
// MAT entries behind ncl::Map (§4.3), and performs the out-of-band writes
// behind _ctrl_ variables. NCL makes no consistency guarantees for these
// updates (§4.1); the controller applies them switch by switch, so
// kernels observe them eventually, not atomically.
//
// Two deployment shapes share this control plane. Identity (New): the
// physical network is the overlay itself, switches keep their AND labels,
// routing is plain shortest-path. Placed (NewPlaced): the overlay maps
// onto a separate physical network via the placement engine
// (placement.go); logical location labels resolve through the assignment,
// and every control write is shadowed so a re-placement after a switch
// failure (Replace) can rebuild the moved location's MAT entries and
// _ctrl_ state on its new home.
package controller

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// Controller manages the switches of one deployment.
type Controller struct {
	net      *and.Network // the logical overlay
	switches map[string]*netsim.SwitchNode

	// Per-topology-epoch route caches. The all-pairs table and the placed
	// routing state are the control plane's two expensive products; both
	// are pure functions of (network, placement, failed set), so they are
	// computed once per epoch and atomically swapped out on Replace. The
	// identity overlay is immutable, so identityHops never invalidates;
	// placedRT invalidates whenever Replace mutates the failed set or the
	// assignment. hostIDs is immutable per controller (built lazily).
	identityHops atomic.Pointer[map[string]map[string]string]
	placedRT     atomic.Pointer[Routing]
	hostIDs      map[uint32]string

	met    ctrlMetrics
	metReg *obs.Registry // registry met is homed in (SetObs carryover)

	// Placement state (nil/zero for identity deployments).
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

// New creates a controller over the AND network (identity deployment:
// the overlay is the physical network).
func New(net *and.Network) *Controller {
	reg := obs.NewRegistry() // private until SetObs
	return &Controller{
		net:        net,
		switches:   map[string]*netsim.SwitchNode{},
		met:        newCtrlMetrics(reg),
		metReg:     reg,
		matShadow:  map[string]map[string]map[uint64]uint64{},
		ctrlShadow: map[string]map[int]uint64{},
	}
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
	c := New(opts.Logical)
	c.placement = pl
	c.opts = opts
	c.failed = map[string]bool{}
	return c, nil
}

// Placement returns the current logical→physical assignment (nil for
// identity deployments).
func (c *Controller) Placement() *Placement { return c.placement }

// physNet returns the network switches physically live on.
func (c *Controller) physNet() *and.Network {
	if c.placement != nil {
		return c.placement.Physical
	}
	return c.net
}

// cachedNextHops returns the identity deployment's single-path table,
// computed once — InstallAll, HostRoutes, and HostRoutingAll used to
// each rebuild the full all-pairs table.
func (c *Controller) cachedNextHops() map[string]map[string]string {
	if p := c.identityHops.Load(); p != nil {
		return *p
	}
	hops := c.net.NextHops()
	c.identityHops.Store(&hops)
	return hops
}

// cachedRouting returns the placed routing state for the current
// (placement, failed) epoch, computing it at most once per epoch —
// a placed deploy used to pay RoutingAvoiding twice (pushRouting and
// HostRoutingAll), and each Replace twice more.
func (c *Controller) cachedRouting() *Routing {
	if rt := c.placedRT.Load(); rt != nil {
		return rt
	}
	rt := c.placement.RoutingAvoiding(c.failed)
	c.placedRT.Store(rt)
	return rt
}

// invalidateRouting starts a new routing epoch (failed set or assignment
// changed).
func (c *Controller) invalidateRouting() { c.placedRT.Store(nil) }

// hostByID returns the host-id→label table (immutable per overlay).
func (c *Controller) hostByID() map[uint32]string {
	if c.hostIDs == nil {
		ids := make(map[uint32]string)
		for _, h := range c.net.Hosts() {
			ids[h.ID] = h.Label
		}
		c.hostIDs = ids
	}
	return c.hostIDs
}

// resolve maps a logical location label to the physical switch holding
// it (identity: the label itself).
func (c *Controller) resolve(loc string) string {
	if c.placement != nil {
		if p, ok := c.placement.Assign[loc]; ok {
			return p
		}
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

// AttachSwitch registers a switch device under its label — an AND switch
// for identity deployments, a physical switch under placement.
func (c *Controller) AttachSwitch(sn *netsim.SwitchNode) error {
	node := c.physNet().NodeByLabel(sn.Label())
	if node == nil || node.Kind != and.SwitchNode {
		return fmt.Errorf("controller: %q is not a switch in the AND", sn.Label())
	}
	c.switches[sn.Label()] = sn
	return nil
}

// SetNamePrefix makes every control-plane register/table name resolve
// under the given prefix. A tenant deployment over a merged device sets
// pisa.TenantPrefix(id) so CtrlWrite("nworkers", ...) reaches the
// tenant's "id/nworkers" slice — application control code is unchanged
// between single-tenant and multi-tenant deployments.
func (c *Controller) SetNamePrefix(prefix string) { c.namePrefix = prefix }

// InstallAll loads each location's program onto its switch and populates
// routing tables and reflect targets on every switch. Under placement,
// programs install on the assigned physical switches and every physical
// switch (placed or not) gets the rewritten routing state. A node that
// wraps a shared device records the program as its view and does not load
// it (SwitchNode.Install): a tenant's tagged programs install this way.
func (c *Controller) InstallAll(programs map[string]*pisa.Program) error {
	c.programs = programs
	if c.placement != nil {
		return c.installPlaced(programs)
	}
	hops := c.cachedNextHops()
	hostByID := c.hostByID()
	for _, sw := range c.net.Switches() {
		sn, ok := c.switches[sw.Label]
		if !ok {
			return fmt.Errorf("controller: switch %s not attached", sw.Label)
		}
		prog, ok := programs[sw.Label]
		if !ok {
			return fmt.Errorf("controller: no program for switch %s", sw.Label)
		}
		if err := sn.Install(prog, sw.ID); err != nil {
			return fmt.Errorf("controller: installing on %s: %w", sw.Label, err)
		}
		c.met.installs.Inc()
		sn.SetRoutes(hops[sw.Label])
		sn.SetHosts(hostByID)
	}
	return nil
}

// installPlaced is InstallAll under a placement: programs land on their
// assigned switches; all physical switches get placement-aware routing.
func (c *Controller) installPlaced(programs map[string]*pisa.Program) error {
	for _, sw := range c.net.Switches() {
		phys := c.placement.Assign[sw.Label]
		sn, ok := c.switches[phys]
		if !ok {
			return fmt.Errorf("controller: physical switch %s (location %s) not attached", phys, sw.Label)
		}
		prog, ok := programs[sw.Label]
		if !ok {
			return fmt.Errorf("controller: no program for location %s", sw.Label)
		}
		if err := sn.Install(prog, sw.ID); err != nil {
			return fmt.Errorf("controller: installing %s on %s: %w", sw.Label, phys, err)
		}
		c.met.installs.Inc()
	}
	return c.pushRouting()
}

// pushRouting installs the current epoch's placement routing (avoiding
// failed switches) on every attached physical switch.
func (c *Controller) pushRouting() error {
	rt := c.cachedRouting()
	hostByID := c.hostByID()
	for _, ps := range c.physNet().Switches() {
		sn, ok := c.switches[ps.Label]
		if !ok {
			return fmt.Errorf("controller: physical switch %s not attached", ps.Label)
		}
		sw := rt.Switches[ps.Label]
		if sw == nil {
			sw = &netsim.SwitchRouting{}
		}
		sn.SetRouting(sw)
		sn.SetHosts(hostByID)
	}
	return nil
}

// Replace reacts to a physical switch failure: the locations it hosted
// re-place onto the remaining switches (unaffected locations stay put),
// their programs re-install, shadowed MAT entries and _ctrl_ writes
// replay onto the new homes, and routing re-converges around the dead
// switch. Identity deployments have no spare switches to move to, so
// Replace requires a placement. Hosts need their routes refreshed too:
// callers push HostRouting to each host after Replace returns (the
// deployment layer owns host handles).
func (c *Controller) Replace(failedPhys string) error {
	if c.placement == nil {
		return fmt.Errorf("controller: Replace needs a placed deployment")
	}
	if c.failed[failedPhys] {
		return nil
	}
	c.failed[failedPhys] = true
	c.invalidateRouting()

	var moved []string
	opts := c.opts
	opts.Exclude = map[string]bool{}
	for l := range c.opts.Exclude {
		opts.Exclude[l] = true
	}
	for l := range c.failed {
		opts.Exclude[l] = true
	}
	// Pin every unaffected location to its current switch: stability is
	// the point (their MAT entries and register state survive in place).
	opts.Pin = map[string]string{}
	for l, p := range c.placement.Assign {
		if c.failed[p] {
			moved = append(moved, l)
		} else {
			opts.Pin[l] = p
		}
	}
	sort.Strings(moved)
	if len(moved) == 0 {
		return c.pushRouting() // routing still must avoid the dead switch
	}
	pl, err := Place(opts)
	if err != nil {
		return fmt.Errorf("controller: re-placement after %s failed: %w", failedPhys, err)
	}
	c.placement = pl
	c.invalidateRouting()

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

// HostRoutes returns the single-path first-hop table for a host label
// (identity deployments).
func (c *Controller) HostRoutes(label string) map[string]string {
	return c.cachedNextHops()[label]
}

// HostRouting returns a host's placement-aware tables: equal-cost next
// hops per routing key and the via waypoints that steer windows through
// placed locations. Identity deployments fall back to the plain
// single-path table.
func (c *Controller) HostRouting(label string) (next map[string][]string, via map[string]string) {
	nextAll, viaAll := c.HostRoutingAll()
	return nextAll[label], viaAll[label]
}

// HostRoutingAll computes every logical host's next/via tables in one
// pass — deployments push these after InstallAll and again after Replace.
func (c *Controller) HostRoutingAll() (next map[string]map[string][]string, via map[string]map[string]string) {
	if c.placement == nil {
		hops := c.cachedNextHops()
		next = map[string]map[string][]string{}
		for _, h := range c.net.Hosts() {
			hn := map[string][]string{}
			for dst, hop := range hops[h.Label] {
				hn[dst] = []string{hop}
			}
			next[h.Label] = hn
		}
		return next, nil
	}
	rt := c.cachedRouting()
	return rt.HostNext, rt.HostVia
}
