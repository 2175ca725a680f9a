package netsim

import (
	"sync"

	"ncl/internal/and"
)

// Virtual time: the fabric computes, per packet, the time (in µs) at
// which it would arrive over the AND's nominal links — serialization
// (bytes over link bandwidth, FIFO per link direction) plus propagation
// latency plus a per-switch pipeline delay. Nothing sleeps; the clock is
// causal bookkeeping carried on packets, so a run's makespan is the
// maximum arrival time observed at a host. This is what turns the
// fabric's byte counters into the completion-time curves of E2 without a
// wall-clock-scaled simulation.
type vclock struct {
	mu       sync.Mutex
	linkFree map[linkKey]float64
	maxHost  float64
}

// SwitchDelayUs is the modeled per-window pipeline traversal delay.
const SwitchDelayUs = 1.0

// stampRun advances the virtual time of a run of packets crossing the
// link key.from→key.to, in order — the one place link arithmetic happens
// (no link, no stamp: SendBatch reports the non-neighbor). Caller holds
// vt.mu. Topology lookups and the link-free cursor are paid once per run,
// not once per packet; they read immutable topology, so they add no
// contention inside the lock.
func (f *Fabric) stampRun(key linkKey, run []*Packet) {
	link := f.net.LinkBetween(key.from, key.to)
	if link == nil {
		return
	}
	n := f.net.NodeByLabel(key.to)
	toHost := n != nil && n.Kind == and.HostNode
	free := f.vt.linkFree[key]
	for _, pkt := range run {
		txUs := float64(len(pkt.Data)) * 8 / (link.GBitsPerS * 1e3)
		depart := pkt.VTimeUs
		if free > depart {
			// The link is still serializing earlier traffic: the packet queues
			// in virtual time. The wait is the fabric's congestion signal.
			f.queueWait.Observe(free - depart)
			depart = free
		}
		free = depart + txUs
		arrive := free + link.LatencyUs
		pkt.VTimeUs = arrive
		if toHost && arrive > f.vt.maxHost {
			f.vt.maxHost = arrive
		}
	}
	f.vt.linkFree[key] = free
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
	f.vt.linkFree = map[linkKey]float64{}
	f.vt.maxHost = 0
}
