package netsim

import (
	"slices"
	"sync"

	"ncl/internal/and"
)

// Routes is one node's forwarding table, the same for a switch and a
// host: equal-cost next hops per routing key, the waypoints the node
// stamps, the logical locations it answers for, its overlay broadcast
// list and the host directory acks and reflected windows are addressed
// by. The controller builds one per node (controller.Placement.
// RoutingAvoiding) and is its only writer in a deployment; a node
// installs it whole with SetRouting and never changes it, so a
// re-placement swaps a node's view in one step mid-traffic and a burst in
// flight keeps the table it loaded. One table belongs to one node. The
// zero value routes nothing.
type Routes struct {
	// Next maps a routing key (destination or waypoint label) to its
	// equal-cost next hops (sorted); flows spread across the set by
	// and.PickHop on (Src, Dst).
	Next map[string][]string
	// Via maps a final destination to the waypoint stamped on packets
	// leaving this node, steering them through the next placed logical
	// hop.
	Via map[string]string
	// Aliases are logical location labels placed on this node: packets
	// destined (or via'd) to them terminate here like the node's own
	// label.
	Aliases []string
	// Bcast is the overlay neighbor list _bcast() targets. Empty means
	// the physical neighbors of the node.
	Bcast []string
	// Hosts maps a host id to its label: where a host's acks, a switch's
	// acks and reflected windows go.
	Hosts map[uint32]string

	nbOnce sync.Once // resolves nbs, the fallback Bcast list, on first use
	nbs    []string
}

// SinglePath is the table of a node run without a controller (the
// baseline, bare-switch experiments, runtime.NewHost, tests): one next
// hop per destination and the host directory hosts, with no aliases,
// waypoints or broadcast list.
func SinglePath(next map[string]string, hosts map[uint32]string) *Routes {
	sets := make(map[string][]string, len(next))
	for dst, hop := range next {
		sets[dst] = []string{hop}
	}
	return &Routes{Next: sets, Hosts: hosts}
}

// NextHop is the forwarding rule of every node: it picks the hop that
// pkt, leaving node self over transport tr, takes next, and keeps
// pkt.Via up to date. A waypoint naming self or an alias has been
// reached and is cleared; a packet without one is stamped with the
// table's waypoint toward its destination, so multi-segment overlay paths
// chain hop by hop. The packet then routes toward its waypoint, or its
// destination when it has none, over the flow's live equal-cost hop
// (pickLiveHop). It reports false when the packet has nowhere to go: it
// is addressed to self, or the table has no route.
func (rt *Routes) NextHop(tr Sender, self string, pkt *Packet) (string, bool) {
	if pkt.Via != "" && rt.answers(self, pkt.Via) {
		pkt.Via = ""
	}
	if pkt.Via == "" {
		if rt.answers(self, pkt.Dst) {
			return "", false
		}
		pkt.Via = rt.Via[pkt.Dst]
	}
	target := pkt.Dst
	if pkt.Via != "" {
		target = pkt.Via
	}
	hops := rt.Next[target]
	if len(hops) == 0 {
		return "", false
	}
	return pickLiveHop(tr, self, hops, pkt.Src, pkt.Dst), true
}

// answers reports whether label names the node self: its own label or
// one of its aliases (a handful at most, so a scan beats a map).
func (rt *Routes) answers(self, label string) bool {
	return label == self || slices.Contains(rt.Aliases, label)
}

// bcastTargets is the list _bcast() sends to: the overlay list the
// controller installs (each copy is unicast-routed toward its target) or,
// without one, the direct neighbors, resolved once per table.
func (rt *Routes) bcastTargets(net *and.Network, self string) []string {
	if len(rt.Bcast) > 0 {
		return rt.Bcast
	}
	rt.nbOnce.Do(func() { rt.nbs = net.Neighbors(self) })
	return rt.nbs
}
