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
// The ring replaces the per-node `chan Delivery` inboxes: a channel wakes
// its receiver once per send and hands over one element per receive,
// so at high packet rates the fabric paid a futex round-trip and a
// scheduler hop per packet. The ring pays them per *batch*.
type ringInbox struct {
	mu   sync.Mutex
	buf  []Delivery
	head int // index of the oldest queued delivery
	n    int // queued count

	// notify has capacity 1: producers make a non-blocking send after
	// enqueueing, the drainer blocks on it only when the ring is empty.
	// A stale token just costs the drainer one empty drain pass.
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

// drain moves up to max queued deliveries into dst (reusing its backing
// array) and returns the slice. An empty result means the ring was empty;
// the caller then blocks on r.notify.
func (r *ringInbox) drain(dst []Delivery, max int) []Delivery {
	dst = dst[:0]
	r.mu.Lock()
	k := r.n
	if k > max {
		k = max
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
	r.mu.Unlock()
	return dst
}

// depth reports the queued count (the INT queue-depth probe).
func (r *ringInbox) depth() int {
	r.mu.Lock()
	n := r.n
	r.mu.Unlock()
	return n
}
