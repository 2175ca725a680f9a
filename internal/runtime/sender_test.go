package runtime

import (
	"errors"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// Tests of the event-driven reliable sender: one state machine per
// OutReliable call, the RTT-adaptive retransmit timeout, and range acks.

// dropSender is the loopback transport with a loss rule: packets whose
// header the rule selects vanish.
type dropSender struct {
	*loopbackSender
	drop func(hd *ncp.Header) bool
}

func (d *dropSender) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	var keptTos []string
	var kept []*netsim.Packet
	for i, pkt := range pkts {
		if hd, _, _, err := ncp.Decode(pkt.Data); err == nil && d.drop(hd) {
			continue
		}
		keptTos, kept = append(keptTos, tos[i]), append(kept, pkt)
	}
	return d.loopbackSender.SendBatch(from, keptTos, kept)
}

// firstAttemptsOf returns a loss rule dropping the first transmission of
// every reliable window whose sequence number lost selects.
func firstAttemptsOf(lost func(seq uint32) bool) func(*ncp.Header) bool {
	seen := map[uint32]bool{}
	return func(hd *ncp.Header) bool {
		if hd.Flags&ncp.FlagAckRequest == 0 || !lost(hd.WindowSeq) || seen[hd.WindowSeq] {
			return false
		}
		seen[hd.WindowSeq] = true
		return true
	}
}

// lossyPair is reliablePair over a dropSender.
func lossyPair(t *testing.T, drop func(*ncp.Header) bool) (*loopbackSender, *Host, *obs.Registry) {
	t.Helper()
	lb := newLoopback(t)
	ds := &dropSender{loopbackSender: lb, drop: drop}
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sender := NewHost("a", 1, 0, cfg, ds, map[string]string{"b": "s1", "void": "s1"})
	recv := NewHost("b", 2, 1, cfg, ds, map[string]string{"a": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = recv
	return lb, sender, reg
}

// rtoOf reads a destination's current retransmit timeout.
func rtoOf(h *Host, dest string, timeout time.Duration) (rto time.Duration, sampled bool) {
	h.ackMu.Lock()
	defer h.ackMu.Unlock()
	e := h.rtt[dest]
	if e == nil {
		return timeout, false
	}
	return e.rto(timeout), e.sampled
}

// TestAckRTTSamplesOnlyFirstAttempts pins Karn's rule: the ack of a
// retransmitted window cannot be attributed to one of its attempts, so
// it is a sample neither for ack_rtt_us nor for the estimator.
func TestAckRTTSamplesOnlyFirstAttempts(t *testing.T) {
	const windows = 8
	_, sender, reg := lossyPair(t, firstAttemptsOf(func(seq uint32) bool { return seq == 3 }))
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, windows*4)},
		ReliableOptions{Timeout: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["host.a.retransmits"]; got != 1 {
		t.Errorf("retransmits = %d, want 1 (window 3's first attempt was dropped)", got)
	}
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != windows-1 {
		t.Errorf("ack_rtt_us has %d samples, want %d: the retransmitted window must not be sampled", got, windows-1)
	}

	// Every first attempt lost: the invocation completes on retransmits
	// and teaches the estimator nothing.
	_, sender, reg = lossyPair(t, firstAttemptsOf(func(uint32) bool { return true }))
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, windows*4)},
		ReliableOptions{Timeout: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Histograms["host.a.ack_rtt_us"].Count; got != 0 {
		t.Errorf("ack_rtt_us has %d samples from retransmitted windows, want 0", got)
	}
	if _, sampled := rtoOf(sender, "b", time.Second); sampled {
		t.Error("estimator took a sample from a retransmitted window")
	}
}

// TestRTOEstimator: the Jacobson estimator's timeout as a function of
// its samples.
func TestRTOEstimator(t *testing.T) {
	const timeout = 20 * time.Millisecond
	ms := time.Millisecond
	repeat := func(n int, rtts ...time.Duration) []time.Duration {
		var out []time.Duration
		for i := 0; i < n; i++ {
			out = append(out, rtts...)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		lo, hi  time.Duration
	}{
		{"no sample: the configured timeout", nil, timeout, timeout},
		{"one sample: srtt + 4*(srtt/2)", []time.Duration{2 * ms}, 6 * ms, 6 * ms},
		{"converges on a steady round trip", repeat(64, 3*ms), 3 * ms, 3*ms + 100*time.Microsecond},
		{"variance widens it", repeat(32, 2*ms, 4*ms), 5 * ms, 9 * ms},
		{"never below the floor", repeat(64, 50*time.Microsecond), rtoFloor, rtoFloor},
		{"never above the timeout", repeat(8, 500*ms), timeout, timeout},
	} {
		var e rttEstimator
		for _, s := range tc.samples {
			e.observe(s)
		}
		if got := e.rto(timeout); got < tc.lo || got > tc.hi {
			t.Errorf("%s: rto = %v, want in [%v, %v]", tc.name, got, tc.lo, tc.hi)
		}
	}
}

// TestNoSampleScheduleUnchanged: without round-trip samples a window's
// schedule is the fixed one the per-window timers had — Timeout, doubled
// per attempt up to 32x, ±10% from the second attempt on — and a window
// is reported after exactly Retries+1 attempts.
func TestNoSampleScheduleUnchanged(t *testing.T) {
	const timeout = 4 * time.Millisecond
	for attempt := 0; attempt <= 8; attempt++ {
		nominal := min(timeout<<attempt, 32*timeout)
		for i := 0; i < 200; i++ {
			iv := retransmitInterval(timeout, attempt)
			spread := nominal / 10
			if attempt == 0 {
				spread = 0
			}
			if iv < nominal-spread || iv > nominal+spread {
				t.Fatalf("attempt %d waits %v, want %v ±%v", attempt, iv, nominal, spread)
			}
		}
	}
	opts := ReliableOptions{Timeout: timeout, Retries: 3}
	// 4 + 0.9*(8+16+32) ms: every jitter draw at its shortest.
	if got, want := opts.patience(), 54400*time.Microsecond; got != want {
		t.Errorf("patience = %v, want %v", got, want)
	}

	lb, sender, _ := lossyPair(t, func(*ncp.Header) bool { return false })
	start := time.Now()
	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"}, [][]uint64{make([]uint64, 4)}, opts)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "never acknowledged after 4 attempts") {
		t.Fatalf("black-holed window: %v", err)
	}
	if lb.sentCount() != 4 {
		t.Errorf("sent %d packets, want Retries+1 = 4", lb.sentCount())
	}
	if elapsed < opts.patience() {
		t.Errorf("gave up after %v, before the schedule's %v", elapsed, opts.patience())
	}
}

// TestRTOAdaptsPerDestination: the estimate outlives the invocation that
// made it, belongs to one destination, and shortens the retransmit
// timeout without shortening how long a window is given.
func TestRTOAdaptsPerDestination(t *testing.T) {
	lb, sender, reg := lossyPair(t, func(*ncp.Header) bool { return false })
	const timeout = 10 * time.Millisecond
	opts := ReliableOptions{Timeout: timeout, Retries: 2}
	data := [][]uint64{make([]uint64, 16*4)}

	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, data, opts); err != nil {
		t.Fatal(err)
	}
	// Loopback round trips are microseconds: the estimate sits at or near
	// the floor, far below the configured timeout.
	adapted := func(rto time.Duration, sampled bool) bool {
		return sampled && rto >= rtoFloor && rto <= timeout/3
	}
	if rto, sampled := rtoOf(sender, "b", timeout); !adapted(rto, sampled) {
		t.Fatalf("after one invocation: rto = %v (sampled %v), want about the %v floor", rto, sampled, rtoFloor)
	}
	if _, sampled := rtoOf(sender, "void", timeout); sampled {
		t.Error("destination void has samples it never produced")
	}

	// A destination without samples keeps the configured schedule...
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"}, [][]uint64{make([]uint64, 4)},
		ReliableOptions{Timeout: 2 * time.Millisecond, Retries: 1}); err == nil {
		t.Fatal("black-holed destination must fail")
	}
	if rto, sampled := rtoOf(sender, "void", timeout); sampled || rto != timeout {
		t.Errorf("void: rto = %v (sampled %v), want the unsampled %v", rto, sampled, timeout)
	}
	// ...and does not disturb its neighbour's.
	if rto, sampled := rtoOf(sender, "b", timeout); !adapted(rto, sampled) {
		t.Errorf("b after void failed: rto = %v (sampled %v)", rto, sampled)
	}

	// b goes dark. The next invocation starts from the ~1 ms estimate, so
	// it is through its Retries within ~10 ms — but the window still gets
	// the 10+18+36 ms the fixed schedule would have given it, retrying at
	// the capped interval meanwhile.
	lb.mu.Lock()
	delete(lb.nodes, "b")
	lb.mu.Unlock()
	before := lb.sentCount()
	start := time.Now()
	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, [][]uint64{make([]uint64, 4)}, opts)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "never acknowledged") {
		t.Fatalf("dark destination: %v", err)
	}
	if elapsed < opts.patience() {
		t.Errorf("gave up after %v; patience is %v", elapsed, opts.patience())
	}
	if attempts := lb.sentCount() - before; attempts <= opts.Retries+1 {
		t.Errorf("%d attempts in %v: an adapted RTO must keep retrying until the patience runs out", attempts, elapsed)
	}
	if got := reg.Snapshot().Gauges["host.a.reliable_inflight"]; got != 0 {
		t.Errorf("reliable_inflight = %d after the calls returned", got)
	}
}

// TestHostCloseFailsOutstandingReliable: Close wakes a sender parked on
// a long retransmit timer instead of leaving it to retry into the void.
func TestHostCloseFailsOutstandingReliable(t *testing.T) {
	lb, sender, _ := lossyPair(t, func(*ncp.Header) bool { return false })
	done := make(chan error, 1)
	go func() {
		done <- sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
			[][]uint64{make([]uint64, 4)}, ReliableOptions{Timeout: time.Second})
	}()
	for deadline := time.Now().Add(time.Second); lb.sentCount() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	closed := time.Now()
	sender.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("OutReliable on a closed host: %v, want ErrClosed", err)
		}
		if d := time.Since(closed); d > 100*time.Millisecond {
			t.Errorf("returned %v after Close, want < 100ms", d)
		}
	case <-time.After(900 * time.Millisecond):
		t.Fatal("OutReliable still retransmitting after Close")
	}
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
		[][]uint64{make([]uint64, 4)}, ReliableOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("OutReliable after Close: %v, want ErrClosed", err)
	}
}

// rangeAcker is a batch transport standing in for an acknowledging
// switch: every reliable window of a burst is acknowledged, the acks of
// one burst coalesced into range acks and delivered re-entrantly.
type rangeAcker struct {
	net  *and.Network
	host *Host
	dec  ncp.Decoded

	lose      int // this many acks are dropped before any is delivered
	acks      int // acks built, lost ones included
	peakGorts int // most goroutines seen during a send
}

func (r *rangeAcker) Network() *and.Network { return r.net }

func (r *rangeAcker) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	r.peakGorts = max(r.peakGorts, gort.NumGoroutine())
	var (
		open bool
		ack  ncp.Header
		more uint64
	)
	flush := func() {
		if !open {
			return
		}
		open = false
		r.acks++
		if r.lose > 0 {
			r.lose--
			return
		}
		var bitmap [8]byte
		data, err := ncp.Marshal(&ack, nil, ncp.AppendAckRange(bitmap[:0], more))
		if err != nil {
			panic(err)
		}
		r.host.Receive(r, &netsim.Packet{Dst: r.host.Label(), Data: data}, "s1")
	}
	for _, pkt := range pkts {
		if err := ncp.DecodeFullInto(pkt.Data, &r.dec); err != nil {
			return err
		}
		hd := &r.dec.Header
		if hd.Flags&ncp.FlagAckRequest == 0 {
			continue
		}
		if d := hd.WindowSeq - ack.WindowSeq; open && hd.Wid == ack.Wid && d < ncp.AckSpan {
			if d > 0 {
				more |= 1 << (d - 1)
			}
			continue
		}
		flush()
		open, more = true, 0
		ack = ncp.Header{Flags: ncp.FlagAck, KernelID: hd.KernelID, WindowSeq: hd.WindowSeq, Wid: hd.Wid, FragCount: 1}
	}
	flush()
	return nil
}

func rangeAckedHost(t testing.TB) (*rangeAcker, *Host, *obs.Registry) {
	t.Helper()
	ra := &rangeAcker{net: newLoopback(t).net}
	cfg := testConfig(t, 4)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	ra.host = NewHost("a", 1, 0, cfg, ra, map[string]string{"s1": "s1"})
	return ra, ra.host, reg
}

// TestOutReliableFlatPerInvocation: a 4096-window invocation runs on the
// caller's goroutine and costs the two allocations per window of the
// pooled send path (packet bytes and envelope) plus a per-invocation
// constant — no goroutine, channel, timer or map entry per window.
func TestOutReliableFlatPerInvocation(t *testing.T) {
	const windows = 4096
	ra, sender, reg := rangeAckedHost(t)
	data := [][]uint64{make([]uint64, windows*4)}
	inv := Invocation{Kernel: "k", Dest: "s1"}

	before := gort.NumGoroutine()
	if err := sender.OutReliable(inv, data, ReliableOptions{}); err != nil {
		t.Fatal(err)
	}
	if raised := ra.peakGorts - before; raised > 2 {
		t.Errorf("a %d-window invocation raised the goroutine count by %d, want <= 2", windows, raised)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != windows {
		t.Errorf("ack_rtt_us has %d samples, want %d", got, windows)
	}
	if got := snap.Counters["host.a.retransmits"] + snap.Counters["host.a.stale_acks"]; got != 0 {
		t.Errorf("%d retransmits + stale acks on a lossless transport", got)
	}
	// 32 windows in flight leave in one burst and come back in one ack.
	if want := windows / 32; ra.acks != want {
		t.Errorf("%d acks for %d windows, want %d", ra.acks, windows, want)
	}

	allocs := testing.AllocsPerRun(5, func() {
		if err := sender.OutReliable(inv, data, ReliableOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if perWindow := allocs / windows; perWindow > 4 {
		t.Errorf("OutReliable allocates %.2f/window (%.0f per call), want <= 4", perWindow, allocs)
	}
}

// TestRangeAcks: the one ack decoder, from the single-window ack every
// host sends to a full bitmap.
func TestRangeAcks(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		for _, more := range []uint64{0, 1, 1 << 62, 0x5555_5555_5555_5555, 1<<63 - 1} {
			payload := ncp.AppendAckRange(nil, more)
			if wantLen := map[bool]int{true: 0, false: 8}[more == 0]; len(payload) != wantLen {
				t.Errorf("bitmap %#x encodes to %d bytes, want %d", more, len(payload), wantLen)
			}
			if got, ok := ncp.AckRange(payload); !ok || got != more {
				t.Errorf("bitmap %#x decodes to %#x (ok %v)", more, got, ok)
			}
		}
		for _, n := range []int{1, 7, 9, 16} {
			if _, ok := ncp.AckRange(make([]byte, n)); ok {
				t.Errorf("a %d-byte ack payload was accepted", n)
			}
		}
	})

	// outstanding starts an 8-window invocation into the void and returns
	// once all eight are on the wire, unacknowledged.
	outstanding := func(t *testing.T) (sender *Host, reg *obs.Registry, done chan error, ack func(base uint32, more uint64)) {
		lb, sender, reg := lossyPair(t, func(*ncp.Header) bool { return false })
		done = make(chan error, 1)
		go func() {
			done <- sender.OutReliable(Invocation{Kernel: "k", Dest: "void"},
				[][]uint64{make([]uint64, 8*4)}, ReliableOptions{Timeout: 2 * time.Second})
		}()
		for deadline := time.Now().Add(time.Second); lb.sentCount() < 8; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("windows never left")
			}
		}
		ack = func(base uint32, more uint64) {
			data, err := ncp.Marshal(&ncp.Header{Flags: ncp.FlagAck, Wid: 1, WindowSeq: base, FragCount: 1},
				nil, ncp.AppendAckRange(nil, more))
			if err != nil {
				t.Fatal(err)
			}
			sender.Receive(lb, &netsim.Packet{Dst: "a", Data: data}, "s1")
		}
		return sender, reg, done, ack
	}
	finished := func(t *testing.T, done chan error) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("every window was acknowledged but OutReliable did not return")
		}
	}

	t.Run("bits past the window count", func(t *testing.T) {
		_, reg, done, ack := outstanding(t)
		ack(0, 1<<9-1) // windows 0..9 of an 8-window invocation
		finished(t, done)
		snap := reg.Snapshot()
		if got := snap.Counters["host.a.stale_acks"]; got != 1 {
			t.Errorf("stale_acks = %d, want 1 for the one ack that overshot", got)
		}
		if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != 8 {
			t.Errorf("ack_rtt_us has %d samples, want 8", got)
		}
	})

	t.Run("repeated range", func(t *testing.T) {
		_, reg, done, ack := outstanding(t)
		ack(0, 0b111) // 0..3
		ack(0, 0b111) // again: four stale windows, one stale ack
		ack(4, 0)     // the degenerate range
		ack(5, 0b11)  // 5..7
		finished(t, done)
		ack(5, 0b11) // after the invocation is gone
		snap := reg.Snapshot()
		if got := snap.Counters["host.a.stale_acks"]; got != 2 {
			t.Errorf("stale_acks = %d, want 2 (one per repeated ack)", got)
		}
		if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != 8 {
			t.Errorf("ack_rtt_us has %d samples, want 8", got)
		}
	})

	t.Run("lost range ack", func(t *testing.T) {
		ra, sender, reg := rangeAckedHost(t)
		ra.lose = 1
		if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "s1"}, [][]uint64{make([]uint64, 48*4)},
			ReliableOptions{Timeout: 5 * time.Millisecond, Window: 16}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		// The first burst's ack covered windows 0..15; all of them time
		// out, go again and are acknowledged again.
		if got := snap.Counters["host.a.retransmits"]; got != 16 {
			t.Errorf("retransmits = %d, want the 16 windows the lost ack covered", got)
		}
		if got := snap.Histograms["host.a.ack_rtt_us"].Count; got != 32 {
			t.Errorf("ack_rtt_us has %d samples, want the 32 never-retransmitted windows", got)
		}
		if got := snap.Counters["host.a.stale_acks"]; got != 0 {
			t.Errorf("stale_acks = %d, want 0", got)
		}
	})
}

// Ack-driven loss detection: a window is resent once dupThresh windows
// transmitted after it are acknowledged on their only transmission,
// without waiting out its timer.

// retransmitCounts reads the sender's retransmits and the ack-driven
// subset of them.
func retransmitCounts(reg *obs.Registry) (retransmits, fast uint64) {
	snap := reg.Snapshot()
	return snap.Counters["host.a.retransmits"], snap.Counters["host.a.fast_retransmits"]
}

// windowsOf is the single array of n windows at the test config's W=4.
func windowsOf(n int) [][]uint64 { return [][]uint64{make([]uint64, n*4)} }

// TestFastRetransmitLostWindow: a lost window is resent as soon as three
// later windows are acknowledged — here within the same call, although
// its timer (no round-trip sample yet) would wait 10 s.
func TestFastRetransmitLostWindow(t *testing.T) {
	_, sender, reg := lossyPair(t, firstAttemptsOf(func(seq uint32) bool { return seq == 3 }))
	start := time.Now()
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(64),
		ReliableOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("the call took %v: the lost window waited for its timer", d)
	}
	if retx, fast := retransmitCounts(reg); retx != 1 || fast != 1 {
		t.Errorf("retransmits = %d, fast_retransmits = %d, want 1 and 1", retx, fast)
	}

	// The resend re-arms the window at one RTO: only an expired deadline
	// backs off. A Timeout at the floor pins the RTO there.
	_, sender, reg = lossyPair(t, firstAttemptsOf(func(seq uint32) bool { return seq == 3 }))
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(64),
		ReliableOptions{Timeout: rtoFloor}); err != nil {
		t.Fatal(err)
	}
	want := float64(rtoFloor / time.Microsecond)
	if h := reg.Snapshot().Histograms["host.a.backoff_us"]; h.Count != 1 || h.Sum != want {
		t.Errorf("backoff_us has %d observations summing to %v µs, want one of %v", h.Count, h.Sum, want)
	}
}

// TestFastRetransmitLostAck: when the ack is what was lost, the resend
// reaches a receiver that already has the window. It is deduplicated and
// re-acknowledged, and the application sees every window once.
func TestFastRetransmitLostAck(t *testing.T) {
	const windows = 64
	acked3 := false
	lb, sender, reg := lossyPair(t, func(hd *ncp.Header) bool {
		if hd.Flags&ncp.FlagAck == 0 || hd.WindowSeq != 3 || acked3 {
			return false
		}
		acked3 = true
		return true
	})
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(windows),
		ReliableOptions{Timeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if retx, fast := retransmitCounts(reg); retx != 1 || fast != 1 {
		t.Errorf("retransmits = %d, fast_retransmits = %d, want 1 and 1", retx, fast)
	}
	if got := reg.Snapshot().Counters["host.b.duplicates_dropped"]; got != 1 {
		t.Errorf("duplicates_dropped = %d, want 1 (the resent window 3)", got)
	}
	recv := lb.nodes["b"].(*Host)
	seen := map[uint32]bool{}
	for i := 0; i < windows; i++ {
		rw, err := recv.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if seen[rw.Header.WindowSeq] {
			t.Fatalf("window %d delivered twice", rw.Header.WindowSeq)
		}
		seen[rw.Header.WindowSeq] = true
	}
	if rw, err := recv.Recv(10 * time.Millisecond); err == nil {
		t.Errorf("window %d delivered after all %d", rw.Header.WindowSeq, windows)
	}
}

// burstSwapper delivers each of the sender's bursts with its last two
// packets swapped, the earlier one held until the sender's next burst, so
// the sender's step in between sees the later window acknowledged and the
// earlier one still in flight. The burst carrying the call's final window
// is left in order: after it the threshold is 1, and a swap there would
// be resent (see TestFastRetransmitTail).
type burstSwapper struct {
	*loopbackSender
	final  uint32 // sequence of the call's last window
	held   *netsim.Packet
	heldTo string
	swaps  int
}

func (b *burstSwapper) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	if from != "a" {
		return b.loopbackSender.SendBatch(from, tos, pkts)
	}
	var outTos []string
	var out []*netsim.Packet
	if b.held != nil {
		outTos, out = append(outTos, b.heldTo), append(out, b.held)
		b.held = nil
	}
	n := len(pkts)
	swap := false
	if n >= 2 {
		hd, _, _, err := ncp.Decode(pkts[n-1].Data)
		swap = err == nil && hd.WindowSeq != b.final
	}
	for i, pkt := range pkts {
		if swap && i == n-2 {
			b.held, b.heldTo = pkt, tos[i]
			b.swaps++
			continue
		}
		outTos, out = append(outTos, tos[i]), append(out, pkt)
	}
	return b.loopbackSender.SendBatch(from, outTos, out)
}

// TestFastRetransmitToleratesReorder: a window overtaken by the one sent
// right after it is reordered, not lost — the threshold of three keeps
// swap-with-next reordering from triggering resends.
func TestFastRetransmitToleratesReorder(t *testing.T) {
	const windows = 64
	lb := newLoopback(t)
	bs := &burstSwapper{loopbackSender: lb, final: windows - 1}
	cfg := testConfig(t, 4)
	cfg.HostLabels = map[uint32]string{1: "a", 2: "b"}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	sender := NewHost("a", 1, 0, cfg, bs, map[string]string{"b": "s1"})
	lb.nodes["a"] = sender
	lb.nodes["b"] = NewHost("b", 2, 1, cfg, bs, map[string]string{"a": "s1"})

	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(windows),
		ReliableOptions{Timeout: 10 * time.Second, Window: 8}); err != nil {
		t.Fatal(err)
	}
	if bs.swaps < 5 {
		t.Fatalf("only %d bursts were reordered", bs.swaps)
	}
	if _, fast := retransmitCounts(reg); fast != 0 {
		t.Errorf("fast_retransmits = %d over %d swapped pairs, want 0", fast, bs.swaps)
	}
}

// TestFastRetransmitTail: once every window is admitted the threshold is
// 1, so the second-to-last window is recovered from the last one's ack.
// The last window has nothing after it to be overtaken by: its loss waits
// for the timer. This is the detector's documented limit.
func TestFastRetransmitTail(t *testing.T) {
	const windows = 64
	for _, tc := range []struct {
		lost                  uint32
		retransmits, fastRetx uint64
	}{
		{lost: windows - 2, retransmits: 1, fastRetx: 1},
		{lost: windows - 1, retransmits: 1, fastRetx: 0},
	} {
		_, sender, reg := lossyPair(t, firstAttemptsOf(func(seq uint32) bool { return seq == tc.lost }))
		if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(windows),
			ReliableOptions{}); err != nil {
			t.Fatal(err)
		}
		if retx, fast := retransmitCounts(reg); retx != tc.retransmits || fast != tc.fastRetx {
			t.Errorf("window %d lost: retransmits = %d, fast_retransmits = %d, want %d and %d",
				tc.lost, retx, fast, tc.retransmits, tc.fastRetx)
		}
	}
}

// TestFastRetransmitBoundedByRetries: a window whose every attempt is
// lost while the others are acknowledged is overtaken again after each
// resend. Ack-driven resends stop at Retries; the window then follows the
// timer schedule and is reported after patience, as without detection.
func TestFastRetransmitBoundedByRetries(t *testing.T) {
	_, sender, reg := lossyPair(t, func(hd *ncp.Header) bool {
		return hd.Flags&ncp.FlagAckRequest != 0 && hd.WindowSeq == 5
	})
	opts := ReliableOptions{Timeout: 2 * time.Millisecond, Retries: 3, Window: 8}
	start := time.Now()
	err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(64), opts)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "window 5 of invocation") ||
		!strings.Contains(err.Error(), "was never acknowledged after") {
		t.Fatalf("black-holed window 5: %v", err)
	}
	if elapsed < opts.patience() {
		t.Errorf("gave up after %v, before the patience of %v", elapsed, opts.patience())
	}
	if _, fast := retransmitCounts(reg); fast == 0 || fast > uint64(opts.Retries) {
		t.Errorf("fast_retransmits = %d, want 1..%d", fast, opts.Retries)
	}
}

// TestFastRetransmitIgnoresRetransmittedAcks: the ack of a retransmitted
// window may answer its earlier attempt (Karn), so it overtakes nothing.
// Every first attempt is lost and window 0's second too: the other three
// are acknowledged only on their retransmissions, and window 0 waits for
// its timer.
func TestFastRetransmitIgnoresRetransmittedAcks(t *testing.T) {
	attempts := map[uint32]int{}
	_, sender, reg := lossyPair(t, func(hd *ncp.Header) bool {
		if hd.Flags&ncp.FlagAckRequest == 0 {
			return false
		}
		attempts[hd.WindowSeq]++
		return attempts[hd.WindowSeq] == 1 || hd.WindowSeq == 0 && attempts[0] == 2
	})
	if err := sender.OutReliable(Invocation{Kernel: "k", Dest: "b"}, windowsOf(4),
		ReliableOptions{Timeout: 10 * time.Millisecond, Window: 4}); err != nil {
		t.Fatal(err)
	}
	if retx, fast := retransmitCounts(reg); retx != 5 || fast != 0 {
		t.Errorf("retransmits = %d, fast_retransmits = %d, want 5 timed out and 0", retx, fast)
	}
}
