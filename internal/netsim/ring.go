package netsim

import "sync"

// ringInbox is a node's batched ingress queue: a fixed-capacity FIFO ring
// of deliveries guarded by one short mutex, plus a one-slot wakeup
// channel. Producers (Fabric.SendBatch from any goroutine) append under the
// lock — one pushPkts per destination of a call, whatever the call's
// interleaving — and drop-not-block when the ring is full, exactly the old
// channel inbox contract, while the node's drain goroutine takes *many*
// packets per wakeup instead of one channel receive each, which is where
// the batched fabric's throughput comes from: one lock acquire, one
// wakeup, and one node hand-off amortize over a whole burst.
//
// The ring also holds the node's one running claim, taken under the same
// mutex by whoever runs the node: the drainer, or a sender running a lone
// packet inline (claimOne). A node never runs on two goroutines at once,
// and a running node, on this stack or another, queues what it is sent.
type ringInbox struct {
	mu      sync.Mutex
	buf     []Delivery
	head    int         // index of the oldest queued delivery
	n       int         // queued count
	running bool        // a goroutine runs the node
	stopped bool        // Fabric.Stop: no sender claims the node again
	one     [1]Delivery // the claimOne burst; only the claim holder touches it

	// notify has capacity 1: producers make a non-blocking send after
	// enqueueing, the drainer blocks on it only when it has nothing to
	// claim. A stale token just costs the drainer one empty drain pass.
	notify chan struct{}
}

func newRingInbox(capacity int) *ringInbox {
	if capacity < 1 {
		capacity = 1
	}
	return &ringInbox{
		buf:    make([]Delivery, capacity),
		notify: make(chan struct{}, 1),
	}
}

// pushPkts appends up to len(pkts) packets (all from the same sender)
// under one lock acquisition and one wakeup, returning how many were
// accepted (the rest would have overflowed the ring and are the caller's
// drops to count).
func (r *ringInbox) pushPkts(pkts []*Packet, from string) int {
	r.mu.Lock()
	free := len(r.buf) - r.n
	k := len(pkts)
	if k > free {
		k = free
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	for i := 0; i < k; i++ {
		r.buf[tail] = Delivery{Pkt: pkts[i], From: from}
		tail++
		if tail == len(r.buf) {
			tail = 0
		}
	}
	r.n += k
	r.mu.Unlock()
	if k > 0 {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
	return k
}

// drain claims the node with up to max queued deliveries in dst (reusing
// its backing array). An empty result — an empty ring, or a running node —
// claims nothing, and the caller then blocks on r.notify.
func (r *ringInbox) drain(dst []Delivery, max int) []Delivery {
	dst = dst[:0]
	r.mu.Lock()
	k := r.n
	if k > max {
		k = max
	}
	if r.running {
		k = 0
	}
	for i := 0; i < k; i++ {
		dst = append(dst, r.buf[r.head])
		r.buf[r.head] = Delivery{} // drop the packet reference
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.n -= k
	r.running = r.running || k > 0
	r.mu.Unlock()
	return dst
}

// claimOne claims an idle node (empty ring, not running, not stopped) for
// a lone packet, which overtakes nothing queued, as a burst of one, else
// nil. The run counts on runs under the lock stop takes, so Stop waits.
func (r *ringInbox) claimOne(pkt *Packet, from string, runs *sync.WaitGroup) []Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running || r.stopped || r.n > 0 {
		return nil
	}
	r.running = true
	runs.Add(1)
	r.one[0] = Delivery{Pkt: pkt, From: from}
	return r.one[:]
}

// release ends a run and wakes the drainer when packets queued meanwhile.
func (r *ringInbox) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running, r.one[0] = false, Delivery{}
	if r.n > 0 {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
}

// stop refuses every later claimOne.
func (r *ringInbox) stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// depth reports the queued count (the INT queue-depth probe).
func (r *ringInbox) depth() int {
	r.mu.Lock()
	n := r.n
	r.mu.Unlock()
	return n
}
