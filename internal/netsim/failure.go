package netsim

// Switch failure: FailNode takes a node out of the fabric without
// stopping its goroutine — every packet to or from it blackholes (counted
// as Dropped on the link), which is how a dead switch looks to its
// neighbors. The controller reacts by re-placing the failed location and
// pushing fresh routes (Controller.Replace / Deployment.FailSwitch); the
// reliable transport's retransmits then flow over the new paths.

// FailNode marks a node as failed. Packets to or from it are dropped
// until RestoreNode. Unknown labels are recorded all the same (harmless).
func (f *Fabric) FailNode(label string) {
	for {
		old := f.failed.Load()
		next := map[string]bool{label: true}
		if old != nil {
			for l := range *old {
				next[l] = true
			}
		}
		if f.failed.CompareAndSwap(old, &next) {
			return
		}
	}
}

// RestoreNode clears a node's failed state.
func (f *Fabric) RestoreNode(label string) {
	for {
		old := f.failed.Load()
		if old == nil || !(*old)[label] {
			return
		}
		next := map[string]bool{}
		for l := range *old {
			if l != label {
				next[l] = true
			}
		}
		ptr := &next
		if len(next) == 0 {
			ptr = nil
		}
		if f.failed.CompareAndSwap(old, ptr) {
			return
		}
	}
}

// NodeFailed reports whether a node is currently failed.
func (f *Fabric) NodeFailed(label string) bool {
	fl := f.failed.Load()
	return fl != nil && (*fl)[label]
}

// FailLink marks the link between a and b as failed in both directions:
// packets crossing it blackhole (counted Dropped on the link) until
// RestoreLink. The nodes stay up — this is the partial-failure case a
// whole-node FailNode cannot express: ECMP flows shift onto surviving
// equal-cost hops (forwarders consult LinkFailed) while single-path
// traffic loses packets like loss. Unknown labels record all the same.
func (f *Fabric) FailLink(a, b string) {
	for {
		old := f.failedLinks.Load()
		next := map[linkKey]bool{{a, b}: true, {b, a}: true}
		if old != nil {
			for k := range *old {
				next[k] = true
			}
		}
		if f.failedLinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// RestoreLink clears a link's failed state (both directions).
func (f *Fabric) RestoreLink(a, b string) {
	for {
		old := f.failedLinks.Load()
		if old == nil || (!(*old)[linkKey{a, b}] && !(*old)[linkKey{b, a}]) {
			return
		}
		next := map[linkKey]bool{}
		for k := range *old {
			if (k == linkKey{a, b}) || (k == linkKey{b, a}) {
				continue
			}
			next[k] = true
		}
		ptr := &next
		if len(next) == 0 {
			ptr = nil
		}
		if f.failedLinks.CompareAndSwap(old, ptr) {
			return
		}
	}
}

// LinkFailed reports whether the directed link from→to is currently
// failed. One atomic load on the healthy path — cheap enough for
// forwarders to consult per packet.
func (f *Fabric) LinkFailed(from, to string) bool {
	ll := f.failedLinks.Load()
	return ll != nil && (*ll)[linkKey{from, to}]
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
