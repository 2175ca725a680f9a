package netsim

// Switch failure: FailNode takes a node out of the fabric without
// stopping its goroutine — every packet to or from it blackholes (counted
// as Dropped on the link), which is how a dead switch looks to its
// neighbors. The controller reacts by re-placing the failed location and
// pushing fresh routes (Controller.Replace / Deployment.FailSwitch); the
// reliable transport's retransmits then flow over the new paths.

// FailNode marks a node as failed. Packets to or from it are dropped
// until RestoreNode. Unknown labels are ignored.
func (f *Fabric) FailNode(label string) { f.setNodeDown(label, true) }

// RestoreNode clears a node's failed state.
func (f *Fabric) RestoreNode(label string) { f.setNodeDown(label, false) }

func (f *Fabric) setNodeDown(label string, down bool) {
	if ep := f.eps[label]; ep != nil {
		ep.down.Store(down)
	}
}

// NodeFailed reports whether a node is currently failed.
func (f *Fabric) NodeFailed(label string) bool {
	ep := f.eps[label]
	return ep != nil && ep.down.Load()
}

// FailLink marks the link between a and b as failed in both directions:
// packets crossing it blackhole (counted Dropped on the link) until
// RestoreLink. The nodes stay up — this is the partial-failure case a
// whole-node FailNode cannot express: ECMP flows shift onto surviving
// equal-cost hops (forwarders consult LinkFailed) while single-path
// traffic loses packets like loss. Labels that share no link are ignored.
func (f *Fabric) FailLink(a, b string) { f.setLinkDown(a, b, true) }

// RestoreLink clears a link's failed state (both directions).
func (f *Fabric) RestoreLink(a, b string) { f.setLinkDown(a, b, false) }

// setLinkDown flips both directions' port bits, keeping linksDown in step.
func (f *Fabric) setLinkDown(a, b string, down bool) {
	for _, dir := range [2][2]string{{a, b}, {b, a}} {
		if p := f.port(dir[0], dir[1]); p != nil && p.down.Swap(down) != down {
			delta := int32(-1)
			if down {
				delta = 1
			}
			f.linksDown.Add(delta)
		}
	}
}

// LinkFailed reports whether the directed link from→to is currently
// failed. One atomic load while no link is down — cheap enough for
// forwarders to consult per packet.
func (f *Fabric) LinkFailed(from, to string) bool {
	if f.linksDown.Load() == 0 {
		return false
	}
	p := f.port(from, to)
	return p != nil && p.down.Load()
}

// LinkHealth is the data-plane view of link liveness: transports that
// support link failure (the in-memory fabric) expose it, and forwarding
// nodes steer ECMP flows away from dead equal-cost hops. Transports
// without it (the UDP backend) simply never filter.
type LinkHealth interface {
	LinkFailed(from, to string) bool
}

var _ LinkHealth = (*Fabric)(nil)

// NullNode is a blackhole attachment for physical nodes that have no
// role in the deployed overlay (fat-tree hosts the logical AND doesn't
// use). Start requires every AND node attached; NullNode satisfies that
// without behavior — and without cost: the fabric attaches it as an
// inert sink (no inbox, no drain goroutine), counting deliveries on
// fabric.sink_packets. A k=32 deploy therefore spawns goroutines
// proportional to the overlay plus switches, not the 8192 hosts.
type NullNode struct{ label string }

// NewNullNode creates a blackhole node for the given label.
func NewNullNode(label string) *NullNode { return &NullNode{label: label} }

// Label implements Node.
func (n *NullNode) Label() string { return n.label }

// Receive implements Node by discarding the packet.
func (n *NullNode) Receive(f Sender, pkt *Packet, from string) {}

var _ Node = (*NullNode)(nil)
