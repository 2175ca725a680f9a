package runtime

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"ncl/internal/ncp"
)

// Reliable window delivery — the optional extension over the paper's §6
// transport discussion. Windows sent with OutReliable carry FlagAckRequest;
// the destination host's runtime acknowledges each one (FlagAck, same
// wid/seq) *after* the window is safely queued for the application, and
// the sender retransmits unacknowledged windows on a timeout.
//
// OutReliable is a pipelined sliding-window transport run as one state
// machine per call, on the caller's goroutine: up to Window windows are in
// flight, their state is one flat per-sequence array registered under the
// invocation's wid, one timer is armed at the earliest outstanding
// deadline, and acknowledgments (one window, or a range of up to
// ncp.AckSpan from a switch) mark the array and poke one notify channel.
// New and lost windows leave in bursts through the batch transport, and
// retransmission is selective. A window is lost once dupThresh windows
// transmitted after it are acknowledged on their only transmission (the
// ack-driven detection of RFC 6675's DupThresh and RACK, in transmission
// order), or once its measured timeout expires (rto.go) — the backstop
// for a window nothing later overtakes. A window that is never
// acknowledged does not abandon the others — every outstanding window
// runs to completion and the first hard error (lowest window sequence)
// is reported.
//
// Non-idempotent kernels: retransmission re-executes on-path kernels, so
// a retried window would double-apply switch-side aggregation. When the
// target kernel mutates register state (AppConfig.NonIdempotent, derived
// from the compiled program's stateful ALUs) OutReliable marks every
// window with ncp.FlagExactlyOnce: the switch consults its per-slot
// shadow state (pisa package) and executes duplicates with the mutating
// ops suppressed — the SwitchML-style seen-bitmap DESIGN §5.4 describes.
// Exactly-once windows consumed on-path (_drop, _reflect, _bcast) are
// acknowledged by the executing switch itself, so aggregation
// contributions complete instead of timing out; plain reliable windows
// keep the original detection-only semantics (a timeout means consumed
// on-path or unreachable).

// ReliableOptions configures OutReliable.
type ReliableOptions struct {
	// Timeout is the retransmit timeout before the destination's first
	// round-trip sample, and the ceiling of the adapted one afterwards
	// (default 20ms). It also sets how long a window is retried before it
	// is reported unacknowledged (see patience).
	Timeout time.Duration
	// Retries per window after the first attempt (default 5).
	Retries int
	// Window caps the number of windows in flight at once (default 32;
	// 1 degenerates to stop-and-wait).
	Window int
	// ExactlyOnce forces ncp.FlagExactlyOnce on every window regardless
	// of AppConfig.NonIdempotent — for hand-built configs and tests; the
	// flag is normally negotiated from the compiled program.
	ExactlyOnce bool
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.Timeout <= 0 {
		o.Timeout = 20 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if o.Window <= 0 {
		o.Window = 32
	}
	return o
}

// dupThresh is how many windows transmitted after an unacknowledged one
// must be acknowledged before it is declared lost. Three tolerates the
// fabric's swap-with-next reordering; once every window of a call has been
// admitted nothing new will overtake the tail, and the threshold drops to
// one (RFC 5827 early retransmit).
const dupThresh = 3

// relWindow is one window's slot in an invocation's state array. Times
// are offsets from relSend.start.
type relWindow struct {
	first    time.Duration // first transmission: the RTT baseline
	deadline time.Duration // when the latest transmission times out
	attempts int32         // transmissions so far
	timeouts int32         // deadlines expired so far: the backoff exponent
	tx       uint32        // order number of the latest transmission (relSend.txs)
	done     bool          // acknowledged or failed
}

// relSend is one OutReliable call in progress, registered in Host.sends
// under its wid. wins, txs and ackedTx are guarded by Host.ackMu (the
// receive path marks acknowledged windows); everything else belongs to
// the calling goroutine.
type relSend struct {
	wins    []relWindow
	txs     uint32 // transmissions stamped so far, in send order
	ackedTx uint32 // highest tx acknowledged on a window's only transmission (0: none)
	est     *rttEstimator
	start   time.Time
	notify  chan struct{} // cap 1: acks and Close poke it
	timer   *time.Timer   // created at the first wait, then reused

	err    error // first hard error: lowest failing window sequence
	errSeq uint32
}

func (s *relSend) poke() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// wait parks the sender until an ack (or Close) pokes it or d elapses.
func (s *relSend) wait(d time.Duration) {
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	select {
	case <-s.notify:
		stopTimer(s.timer)
	case <-s.timer.C:
	}
}

// fail records a window's hard error. Caller holds Host.ackMu.
func (s *relSend) fail(seq uint32, err error) {
	if w := &s.wins[seq]; !w.done {
		w.done = true
		if s.err == nil || seq < s.errSeq {
			s.err, s.errSeq = err, seq
		}
	}
}

// OutReliable sends arrays like Out but requests acknowledgment for each
// window and retransmits lost ones, keeping up to opts.Window windows in
// flight. It returns once every window is acknowledged, or — after all
// outstanding windows have completed — an error naming the first window
// that failed. Closing the host fails the call at once with ErrClosed.
func (h *Host) OutReliable(inv Invocation, arrays [][]uint64, opts ReliableOptions) error {
	opts = opts.withDefaults()
	specs, err := h.outSpecs(inv.Kernel)
	if err != nil {
		return err
	}
	if err := h.checkUserFields(inv); err != nil {
		return err
	}
	windows, err := h.windowCount(inv.Kernel, arrays, specs)
	if err != nil {
		return err
	}
	if windows == 0 {
		return nil
	}
	wid := h.nextWid()
	flags := uint8(ncp.FlagAckRequest)
	if opts.ExactlyOnce || h.cfg.NonIdempotent[inv.Kernel] {
		flags |= ncp.FlagExactlyOnce
	}
	patience := opts.patience()
	window := min(opts.Window, windows)

	s := &relSend{
		wins:   make([]relWindow, windows),
		start:  time.Now(),
		notify: make(chan struct{}, 1),
	}
	h.ackMu.Lock()
	if h.sendsClosed {
		h.ackMu.Unlock()
		return ErrClosed
	}
	if h.sends == nil {
		h.sends = map[uint32]*relSend{}
		h.rtt = map[string]*rttEstimator{}
	}
	if s.est = h.rtt[inv.Dest]; s.est == nil {
		s.est = new(rttEstimator)
		h.rtt[inv.Dest] = s.est
	}
	h.sends[wid] = s
	h.ackMu.Unlock()

	sc := h.getScratch()
	var (
		next     int                            // lowest sequence never transmitted
		inflight = make([]uint32, 0, window)    // transmitted, not yet seen done
		burst    = make([]uint32, 0, window)    // to transmit this step
		winData  = make([][]uint64, len(specs)) // one window's array slices
		timed    uint64                         // 1 once a window's deadline expired
	)
	defer func() {
		h.met.reliableCalls.Inc()
		h.met.timerCalls.Add(timed)
		h.ackMu.Lock()
		delete(h.sends, wid)
		h.ackMu.Unlock()
		if s.timer != nil {
			s.timer.Stop()
		}
		h.met.inflight.Add(-int64(len(inflight)))
		h.putScratch(sc, nil) // every burst was flushed when it was sent
	}()

	for {
		// One step under the lock: retire finished windows, re-arm the
		// overdue ones and admit as many new ones as the window allows.
		// The transport is called after the lock is dropped — the loopback
		// transport delivers acks re-entrantly inside SendBatch.
		was := len(inflight)
		burst = burst[:0]
		h.ackMu.Lock()
		if h.sendsClosed {
			h.ackMu.Unlock()
			return ErrClosed
		}
		now := time.Since(s.start)
		rto := s.est.rto(opts.Timeout)
		thresh := uint32(dupThresh)
		if next == windows {
			thresh = 1
		}
		earliest := time.Duration(math.MaxInt64)
		keep := inflight[:0]
		fast := 0
		for _, seq := range inflight {
			w := &s.wins[seq]
			// Overtaken, and not yet through its Retries: ack-driven
			// resends never outnumber what the timer schedule would send.
			lost := w.tx+thresh <= s.ackedTx && int(w.attempts) <= opts.Retries
			switch {
			case w.done:
				continue
			case now < w.deadline && !lost:
			case int(w.attempts) > opts.Retries && now-w.first >= patience:
				timed = 1 // not lost: out of attempts, so its deadline expired
				s.fail(seq, fmt.Errorf("runtime: window %d of invocation %d was never acknowledged after %d attempts (consumed on-path, or the destination is unreachable)",
					seq, wid, w.attempts))
				continue
			default:
				// Only an expired deadline backs the timer off: a window
				// resent at round-trip pace keeps its interval.
				if lost {
					fast++
				} else {
					w.timeouts++
					timed = 1
				}
				iv := retransmitInterval(rto, int(w.timeouts))
				h.met.backoffUs.Observe(float64(iv) / float64(time.Microsecond))
				w.deadline = now + iv
				w.attempts++
				s.txs++
				w.tx = s.txs
				burst = append(burst, seq)
			}
			earliest = min(earliest, w.deadline)
			keep = append(keep, seq)
		}
		inflight = keep
		retransmits := len(burst)
		for ; next < windows && len(inflight) < window; next++ {
			s.txs++
			s.wins[next] = relWindow{first: now, deadline: now + rto, attempts: 1, tx: s.txs}
			earliest = min(earliest, now+rto)
			inflight = append(inflight, uint32(next))
			burst = append(burst, uint32(next))
		}
		h.ackMu.Unlock()

		h.met.inflight.Add(int64(len(inflight) - was))
		if len(inflight) == 0 {
			return s.err
		}
		if len(burst) == 0 {
			s.wait(earliest - now)
			continue
		}
		h.met.retransmits.Add(uint64(retransmits))
		h.met.fastRetransmits.Add(uint64(fast))
		// Transport and encoding errors are not transient: the burst is
		// failed instead of retried.
		var sendErr error
		for _, seq := range burst {
			windowSlices(winData, arrays, specs, h.cfg.WindowLen, int(seq))
			if sendErr = h.sendWindowScratch(inv, wid, seq, winData, specs, flags, sc); sendErr != nil {
				break
			}
		}
		if err := h.flushSendQueue(sc); sendErr == nil {
			sendErr = err
		}
		if sendErr != nil {
			h.ackMu.Lock()
			for _, seq := range burst {
				s.fail(seq, sendErr)
			}
			h.ackMu.Unlock()
		}
	}
}

// windowCount validates array shapes against the kernel's specs and
// returns the number of windows they describe.
func (h *Host) windowCount(kernel string, arrays [][]uint64, specs []ncp.ParamSpec) (int, error) {
	if len(arrays) != len(specs) {
		return 0, fmt.Errorf("runtime: kernel %s takes %d window arrays, got %d", kernel, len(specs), len(arrays))
	}
	W := h.cfg.WindowLen
	windows := -1
	for pi, sp := range specs {
		n := len(arrays[pi])
		if sp.Elems == W {
			if n%W != 0 {
				return 0, fmt.Errorf("runtime: array %d length %d is not a multiple of the window length %d", pi, n, W)
			}
			n /= W
		}
		if windows == -1 {
			windows = n
		} else if windows != n {
			return 0, fmt.Errorf("runtime: arrays disagree on window count (%d vs %d)", windows, n)
		}
	}
	return windows, nil
}

// handleAck consumes an acknowledgment for our reliable windows: the
// window the header names plus, with a range payload, the following ones
// its bitmap selects (ncp.AckRange) — applied under one lock with one
// wake-up of the sender. A window's round trip is sampled, for the
// histogram and the estimator alike, and its transmission advances
// relSend.ackedTx, only if it was transmitted once: the ack of a
// retransmitted window cannot be attributed to an attempt (Karn). An ack
// naming anything that is not outstanding — a finished invocation, a
// window already acknowledged, a bit past the window count — counts once
// in stale_acks and changes nothing for those windows.
func (h *Host) handleAck(hd *ncp.Header, payload []byte) {
	more, ok := ncp.AckRange(payload)
	if !ok {
		h.met.decodeErrors.Inc()
		return
	}
	fresh, stale := false, false
	h.ackMu.Lock()
	if s := h.sends[hd.Wid]; s == nil {
		stale = true
	} else {
		at := time.Since(s.start)
		ack := func(seq uint64) {
			if h.ackWindow(s, seq, at) {
				fresh = true
			} else {
				stale = true
			}
		}
		base := uint64(hd.WindowSeq)
		ack(base)
		for rest := more; rest != 0; rest &= rest - 1 {
			ack(base + 1 + uint64(bits.TrailingZeros64(rest)))
		}
		if fresh {
			s.poke()
		}
	}
	h.ackMu.Unlock()
	if stale {
		h.met.staleAcks.Inc()
	}
}

// ackWindow marks one window acknowledged, reporting false if it is not
// outstanding. Caller holds ackMu.
func (h *Host) ackWindow(s *relSend, seq uint64, at time.Duration) bool {
	if seq >= uint64(len(s.wins)) {
		return false
	}
	w := &s.wins[seq]
	if w.done || w.attempts == 0 {
		return false
	}
	w.done = true
	if w.attempts == 1 {
		rtt := at - w.first
		s.est.observe(rtt)
		h.met.ackRtt.Observe(float64(rtt) / float64(time.Microsecond))
		s.ackedTx = max(s.ackedTx, w.tx)
	}
	return true
}

// closeSends fails every outstanding OutReliable (and any later one)
// with ErrClosed.
func (h *Host) closeSends() {
	h.ackMu.Lock()
	h.sendsClosed = true
	for _, s := range h.sends {
		s.poke()
	}
	h.ackMu.Unlock()
}

// sendAck queues an acknowledgment for a received reliable window. Called
// only after the window was enqueued for the application (or recognized
// as a duplicate of one that was) — acking a dropped window would lie to
// the sender about delivery.
func (h *Host) sendAck(hd *ncp.Header, sc *sendScratch) error {
	target, ok := h.routes.Load().Hosts[hd.Sender]
	if !ok {
		return nil
	}
	ack := ncp.Header{
		Flags:     ncp.FlagAck,
		KernelID:  hd.KernelID,
		WindowSeq: hd.WindowSeq,
		WindowLen: hd.WindowLen,
		Sender:    h.id,
		FromRole:  h.role,
		Wid:       hd.Wid,
		FragCount: 1,
	}
	pkt, err := sc.marshal(&ack, nil, nil, nil)
	if err != nil {
		return err
	}
	return h.queuePacket(target, pkt, sc)
}
