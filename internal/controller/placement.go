// Placement: mapping a logical AND overlay onto a physical network. The
// paper hand-waves this as "an external mechanism maps the overlay onto
// the physical network" (§3.2, Fig. 3c); here it is concrete — each
// _at_ location lands on the physical switch that minimizes total hop
// count to the kernel's senders and receivers, subject to the switch's
// per-stage ALU/SRAM budget, and routing/reflect/bcast state is rewritten
// so the overlay's semantics survive the mapping.
package controller

import (
	"fmt"
	"slices"
	"sort"

	"ncl/internal/and"
	"ncl/internal/netsim"
	"ncl/internal/pisa"
)

// PlaceOptions parameterizes Place.
type PlaceOptions struct {
	// Logical is the application overlay (the AND the program compiled
	// against); Physical is the deployment network. Every logical host
	// label must name a physical host.
	Logical  *and.Network
	Physical *and.Network
	// Programs maps logical switch labels to their compiled programs;
	// a candidate switch must fit the location's program within budget.
	Programs map[string]*pisa.Program
	// Budget is the per-switch resource envelope (zero value: the
	// default simulation target). Budgets overrides it per physical
	// switch label — a heterogeneous fabric.
	Budget  pisa.TargetConfig
	Budgets map[string]pisa.TargetConfig
	// Exclude removes physical switches from consideration (failed or
	// operator-reserved).
	Exclude map[string]bool
	// Pin forces logical switch -> physical switch assignments (still
	// budget-checked). E16 uses it to compare engine placement against
	// naive core placement.
	Pin map[string]string

	// distCache memoizes the per-destination physical distance tables
	// across candidates and across successive Replace-triggered
	// re-placements (NewPlaced seeds it; a zero value keeps the cache
	// call-local). Tables are computed on the full graph (avoid=nil) —
	// failures only exclude candidate switches — so the cache never goes
	// stale across failovers.
	distCache map[string]map[string]int
}

// budgetFor is the resource envelope of one physical switch: its entry
// in Budgets, else Budget, else the default simulation target.
func (o *PlaceOptions) budgetFor(physSw string) pisa.TargetConfig {
	budget, ok := o.Budgets[physSw]
	if !ok {
		budget = o.Budget
	}
	if budget == (pisa.TargetConfig{}) {
		budget = pisa.DefaultTarget()
	}
	return budget
}

// Placement is a computed logical→physical assignment.
type Placement struct {
	Logical  *and.Network
	Physical *and.Network
	// Assign maps each logical switch label to its physical switch. The
	// mapping is injective: two locations never share a switch.
	Assign map[string]string
	// CostHops is the objective value: the sum over logical links (L, n)
	// of the physical distance between L's switch and n (n's switch for
	// switch-switch links).
	CostHops int
}

// Place maps every logical switch onto a physical switch. Greedy,
// most-constrained-first: locations with the most host neighbors place
// first; each takes the feasible switch minimizing hop count to its
// already-pinned-down neighbors (hosts, plus placed peer locations).
// Deterministic: all ties break by label order.
func Place(opt PlaceOptions) (*Placement, error) {
	logical, phys := opt.Logical, opt.Physical
	if logical == nil || phys == nil {
		return nil, fmt.Errorf("controller: placement needs logical and physical networks")
	}
	for _, h := range logical.Hosts() {
		pn := phys.NodeByLabel(h.Label)
		if pn == nil || pn.Kind != and.HostNode {
			return nil, fmt.Errorf("controller: logical host %q has no physical host", h.Label)
		}
	}

	// Physical distance tables, one BFS per destination we actually cost
	// against (hosts and placed-peer switches), computed lazily and
	// memoized across calls when the caller supplies a cache.
	distTo := opt.distCache
	if distTo == nil {
		distTo = map[string]map[string]int{}
	}
	dist := func(from, to string) int {
		d, ok := distTo[to]
		if !ok {
			d = phys.Distances(to, nil)
			distTo[to] = d
		}
		if v, ok := d[from]; ok {
			return v
		}
		return 1 << 20 // unreachable: effectively infinite
	}

	// Candidate physical switches, sorted for deterministic ties.
	var candidates []string
	for _, s := range phys.Switches() {
		if !opt.Exclude[s.Label] {
			candidates = append(candidates, s.Label)
		}
	}
	sort.Strings(candidates)

	fits := func(logicalSw, physSw string) bool {
		prog := opt.Programs[logicalSw]
		if prog == nil {
			return true // nothing to install: any switch carries it
		}
		return prog.Validate(opt.budgetFor(physSw)) == nil
	}

	// Most-constrained-first: host-adjacency count descending, label
	// ascending. Pinned locations place first regardless.
	type lsw struct {
		label    string
		hostNbrs []string
		swNbrs   []string
	}
	var order []lsw
	for _, s := range logical.Switches() {
		e := lsw{label: s.Label}
		for _, nb := range logical.Neighbors(s.Label) {
			if n := logical.NodeByLabel(nb); n != nil && n.Kind == and.HostNode {
				e.hostNbrs = append(e.hostNbrs, nb)
			} else {
				e.swNbrs = append(e.swNbrs, nb)
			}
		}
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		_, pi := opt.Pin[order[i].label]
		_, pj := opt.Pin[order[j].label]
		if pi != pj {
			return pi
		}
		if len(order[i].hostNbrs) != len(order[j].hostNbrs) {
			return len(order[i].hostNbrs) > len(order[j].hostNbrs)
		}
		return order[i].label < order[j].label
	})

	assign := map[string]string{}
	used := map[string]bool{}
	for _, e := range order {
		if pinTo, ok := opt.Pin[e.label]; ok {
			pn := phys.NodeByLabel(pinTo)
			if pn == nil || pn.Kind != and.SwitchNode {
				return nil, fmt.Errorf("controller: pin %s -> %q: not a physical switch", e.label, pinTo)
			}
			if used[pinTo] {
				return nil, fmt.Errorf("controller: pin %s -> %s: switch already hosts another location", e.label, pinTo)
			}
			if !fits(e.label, pinTo) {
				return nil, fmt.Errorf("controller: pin %s -> %s: program exceeds switch budget", e.label, pinTo)
			}
			assign[e.label] = pinTo
			used[pinTo] = true
			continue
		}
		best, bestCost := "", -1
		for _, cand := range candidates {
			if used[cand] || !fits(e.label, cand) {
				continue
			}
			cost := 0
			for _, h := range e.hostNbrs {
				cost += dist(cand, h)
			}
			for _, sw := range e.swNbrs {
				if p, placed := assign[sw]; placed {
					cost += dist(cand, p)
				}
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = cand, cost
			}
		}
		if best == "" {
			return nil, fmt.Errorf("controller: no feasible switch for location %s (budget or exclusion)", e.label)
		}
		assign[e.label] = best
		used[best] = true
	}

	pl := &Placement{Logical: logical, Physical: phys, Assign: assign}
	pl.CostHops = placementCost(logical, phys, assign, distTo)
	return pl, nil
}

// placementCost evaluates the objective for a full assignment: physical
// distance summed over every logical link, switch endpoints mapped
// through the assignment.
func placementCost(logical, phys *and.Network, assign map[string]string, distTo map[string]map[string]int) int {
	resolve := func(label string) string {
		if p, ok := assign[label]; ok {
			return p
		}
		return label
	}
	total := 0
	for _, l := range logical.Links {
		a, b := resolve(l.A), resolve(l.B)
		d, ok := distTo[b]
		if !ok {
			d = phys.Distances(b, nil)
			distTo[b] = d
		}
		total += d[a]
	}
	return total
}

// Routing is the forwarding state of a placed deployment: one table per
// node that forwards — every physical switch and every overlay host — by
// node label.
type Routing map[string]*netsim.Routes

// Routing computes the forwarding state that realizes the overlay on the
// physical network:
//
//   - every logical switch label becomes an alias routed toward its
//     physical switch, avoiding other placed switches where the topology
//     allows (a window must not transit a foreign location's kernel);
//   - host-destined traffic likewise routes around placed switches when
//     possible, falling back to plain shortest paths when a placed
//     switch is a cut vertex (e.g. the destination's only rack uplink);
//   - hosts and placed switches stamp the Via waypoint so windows visit
//     the physical home of each logical hop on the overlay path, in
//     order — the overlay's semantics (kernels observe every window that
//     logically crosses them) survive the mapping;
//   - _bcast() targets become the logical overlay neighbors.
func (p *Placement) Routing() Routing { return p.RoutingAvoiding(nil) }

// RoutingAvoiding is Routing computed with a set of failed physical
// switches carved out of every path — the post-failure tables Replace
// pushes. Failed switches are avoided unconditionally (no fallback).
func (p *Placement) RoutingAvoiding(failed map[string]bool) Routing {
	logical, phys := p.Logical, p.Physical
	placed := map[string]bool{}
	// The logical location each node serves, whose waypoints and
	// broadcast list it carries: a host serves itself, a switch the
	// location placed on it.
	serves := map[string]string{}
	for l, ph := range p.Assign {
		placed[ph] = true
		serves[ph] = l
	}

	// Next-hop tables per routing key. A logical switch L is keyed both
	// as L (the alias) and as its physical label.
	next := map[string]map[string][]string{}
	for _, s := range logical.Switches() {
		t := nextTowardPlaced(phys, p.Assign[s.Label], placed, failed)
		next[s.Label] = t
		if p.Assign[s.Label] != s.Label {
			next[p.Assign[s.Label]] = t
		}
	}
	hosts := map[uint32]string{} // every table's host directory
	for _, h := range logical.Hosts() {
		next[h.Label] = nextTowardPlaced(phys, h.Label, placed, failed)
		hosts[h.ID] = h.Label
		serves[h.Label] = h.Label
	}

	logicalHops := logical.NextHops()

	// viaFor computes the waypoint a packet from logical node src to
	// destination dst must carry: the first logical switch on the overlay
	// path, when it is not the destination itself.
	viaFor := func(src, dst string) string {
		f := logicalHops[src][dst]
		if f == "" || f == dst {
			return ""
		}
		if n := logical.NodeByLabel(f); n != nil && n.Kind == and.SwitchNode {
			return f
		}
		return ""
	}

	// One table per node that forwards: every physical switch, placed or
	// not, and every overlay host (physical hosts outside the overlay send
	// nothing).
	rt := Routing{}
	for _, n := range slices.Concat(phys.Switches(), logical.Hosts()) {
		r := &netsim.Routes{Next: map[string][]string{}, Hosts: hosts}
		for key, t := range next {
			if hops, ok := t[n.Label]; ok {
				r.Next[key] = hops
			}
		}
		if loc, ok := serves[n.Label]; ok {
			if loc != n.Label {
				r.Aliases = []string{loc}
			}
			r.Bcast = logical.Neighbors(loc)
			via := map[string]string{}
			for _, dst := range logical.Nodes {
				if dst.Label == loc {
					continue
				}
				if v := viaFor(loc, dst.Label); v != "" {
					via[dst.Label] = v
				}
			}
			if len(via) > 0 {
				r.Via = via
			}
		}
		rt[n.Label] = r
	}
	return rt
}

// nextTowardPlaced computes next-hop sets for every physical node toward
// dst, keeping other placed switches off the paths. When that subgraph
// disconnects any node the base graph connects, the whole destination
// falls back to plain shortest paths (mixing the two metrics could
// loop). Placed switches excluded from the avoid-subgraph still get
// entries — their shortest exit into it — so a placed switch can always
// source traffic (bcast results, reflected windows) toward dst. Failed
// switches are carved out of both graphs: nothing ever routes into a
// dead switch.
func nextTowardPlaced(phys *and.Network, dst string, placed, failed map[string]bool) map[string][]string {
	base := map[string]bool{}
	for l := range failed {
		base[l] = true
	}
	avoid := map[string]bool{}
	for l := range base {
		avoid[l] = true
	}
	for l := range placed {
		if l != dst {
			avoid[l] = true
		}
	}
	tFull := phys.NextHopsToward(dst, base)
	if len(avoid) == len(base) {
		return tFull
	}
	tAvoid := phys.NextHopsToward(dst, avoid)
	for n := range tFull {
		if avoid[n] {
			continue
		}
		if _, ok := tAvoid[n]; !ok {
			return tFull
		}
	}
	dist := phys.Distances(dst, avoid)
	for pSw := range avoid {
		if base[pSw] {
			continue // failed: no exit, no entries
		}
		best := -1
		var hops []string
		for _, nb := range phys.Neighbors(pSw) {
			d, ok := dist[nb]
			if !ok {
				continue
			}
			switch {
			case best < 0 || d < best:
				best, hops = d, []string{nb}
			case d == best && (len(hops) == 0 || hops[len(hops)-1] != nb):
				hops = append(hops, nb)
			}
		}
		if len(hops) > 0 {
			tAvoid[pSw] = hops
		} else if h, ok := tFull[pSw]; ok {
			tAvoid[pSw] = h
		}
	}
	return tAvoid
}
