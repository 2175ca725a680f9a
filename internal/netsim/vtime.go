package netsim

import "sync"

// Virtual time: the fabric computes, per packet, the time (in µs) at
// which it would arrive over the AND's nominal links — serialization
// (bytes over link bandwidth, FIFO per link direction) plus propagation
// latency plus a per-switch pipeline delay. Nothing sleeps; the clock is
// causal bookkeeping carried on packets, so a run's makespan is the
// maximum arrival time observed at a host. This is what turns the
// fabric's byte counters into the completion-time curves of E2 without a
// wall-clock-scaled simulation. mu guards maxHost and every port's
// link-free cursor.
type vclock struct {
	mu      sync.Mutex
	maxHost float64
}

// SwitchDelayUs is the modeled per-window pipeline traversal delay.
const SwitchDelayUs = 1.0

// stamp advances the virtual time of a group of packets crossing port p,
// in order — the one place link arithmetic happens. Caller holds vt.mu.
func (f *Fabric) stamp(p *port, grp []*Packet) {
	free := p.free
	for _, pkt := range grp {
		txUs := float64(len(pkt.Data)) * 8 / (p.link.GBitsPerS * 1e3)
		depart := pkt.VTimeUs
		if free > depart {
			// The link is still serializing earlier traffic: the packet queues
			// in virtual time. The wait is the fabric's congestion signal.
			f.queueWait.Observe(free - depart)
			depart = free
		}
		free = depart + txUs
		arrive := free + p.link.LatencyUs
		pkt.VTimeUs = arrive
		if p.toHost && arrive > f.vt.maxHost {
			f.vt.maxHost = arrive
		}
	}
	p.free = free
}

// MakespanUs returns the latest virtual arrival time observed at any
// host since the last ResetStats — the simulated completion time of the
// traffic pattern run so far.
func (f *Fabric) MakespanUs() float64 {
	f.vt.mu.Lock()
	defer f.vt.mu.Unlock()
	return f.vt.maxHost
}

// resetVTime clears the virtual clock (called from ResetStats).
func (f *Fabric) resetVTime() {
	f.vt.mu.Lock()
	defer f.vt.mu.Unlock()
	f.eachPort(func(p *port) { p.free = 0 })
	f.vt.maxHost = 0
}
