package netsim

import (
	"math"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// The switch receive path — the only one. The fabric drains a burst of
// packets from the switch's ring inbox and hands it to ReceiveBurst; a
// direct Receive is a burst of one. Every packet is NCP-decoded exactly
// once; its payload bytes go to the device as they are. Consecutive
// windows for the same kernel form a segment that runs through
// pisa.ExecWindowBatch — one plan lookup and one device lock per
// segment — and whatever the loop cannot execute (non-NCP, acks,
// fragments, unknown kernels) is forwarded in place from the header
// already decoded, after the open segment has executed, so per-source
// FIFO order holds. Every output of the burst leaves through
// one collector and one SendBatch.

// batchWin is one window parked in the open segment — the routing half of
// its pisa.BatchJob, which carries the payload bytes and user values. dec
// holds the window's header; hops aliases the decode scratch of the packet
// it arrived in.
type batchWin struct {
	dec        *ncp.Decoded
	hops       []ncp.Hop
	pkt        *Packet
	switchAcks bool
	inPlace    bool   // leaves in pkt itself: the packet carries it alone, untraced
	qdepth     uint16 // ingress backlog at arrival (traced windows only)
}

// batchState is the working set of one ReceiveBurst call: the open
// segment (wins+jobs, parallel slices) and its kernel, the decode
// scratches handed out so far, and the output collector. Each call takes
// its own (takeBatch), never a set shared on the node: a transport that
// delivers synchronously re-enters Receive from inside a send, and Receive
// may be called from several goroutines. What a finished burst leaves
// parked in it (packets, decoded headers) is overwritten by the next
// burst; zeroing it per burst would put a write barrier on every window.
type batchState struct {
	// The kernel bindings and the forwarding table, loaded once when the
	// burst starts.
	prog *swProgram
	rt   *Routes
	kp   *swKernel
	wins []batchWin
	jobs []pisa.BatchJob
	decs []*ncp.Decoded // grown on demand, reused burst after burst
	used int            // decs[:used] belong to the current burst
	out  batchOut
}

// scratch hands out the burst's next decode target, whose header is a
// window's own. Targets live until the burst ends, so a parked window may
// alias its packet's user values and hop records however many segments
// the packet spans.
func (b *batchState) scratch() *ncp.Decoded {
	if b.used == len(b.decs) {
		b.decs = append(b.decs, &ncp.Decoded{})
	}
	d := b.decs[b.used]
	b.used++
	return d
}

// batchOut collects the packets a burst produces and hands them to the
// transport in one SendBatch, per-destination order preserved.
type batchOut struct {
	tr      Sender
	tos     []string
	pkts    []*Packet
	spare   []*Packet // packets the switch consumed, at most maxSpare
	closing *Packet   // the burst's last ack, sent twice
}

// maxSpare bounds spare (≈ maxSpare × 208 B per working set, none if
// nothing is consumed): a streaming allreduce consumes one worker's round,
// 512 windows, before the other's broadcasts; at 256, 17 % still allocated.
const maxSpare = 1024

// packet hands out a Packet, zero but for empty Data with room for n
// bytes: the last consumed one when n is 0 or its own bytes fit, else a
// new one. It is the only place the switch path allocates a Packet.
func (o *batchOut) packet(n int) *Packet {
	if k := len(o.spare) - 1; k >= 0 && (n == 0 || !o.spare[k].Shared && cap(o.spare[k].Data) >= n) {
		p := o.spare[k]
		o.spare, *p = o.spare[:k], Packet{Data: p.Data[:0]}
		return p
	}
	if n == 0 {
		return &Packet{}
	}
	return NewPacket(n)
}

// marshal encodes an NCP packet (ncp.AppendHops) into a packet from
// o.packet.
func (o *batchOut) marshal(h *ncp.Header, user []uint64, hops []ncp.Hop, payload []byte) (p *Packet, err error) {
	p = o.packet(ncp.MarshalLen(h, user, hops, payload))
	p.Data, err = ncp.AppendHops(p.Data, h, user, hops, payload)
	return p, err
}

func (o *batchOut) send(to string, pkt *Packet) {
	o.tos = append(o.tos, to)
	o.pkts = append(o.pkts, pkt)
}

// flush sends everything queued; errors are the caller's to count.
func (o *batchOut) flush(from string) error {
	if len(o.pkts) == 0 {
		return nil
	}
	err := o.tr.SendBatch(from, o.tos, o.pkts)
	o.tos = o.tos[:0]
	o.pkts = o.pkts[:0]
	return err
}

// Receive implements Node: a burst of one, executed and flushed to the
// transport before it returns. Safe to re-enter and to call from several
// goroutines.
func (s *SwitchNode) Receive(f Sender, pkt *Packet, from string) {
	one := [1]Delivery{{Pkt: pkt, From: from}}
	s.ReceiveBurst(f, one[:])
}

// ReceiveBurst implements BurstReceiver: the Fig. 3b dispatch over a
// drained burst.
func (s *SwitchNode) ReceiveBurst(f Sender, batch []Delivery) {
	b := s.takeBatch()
	b.out.tr, b.prog, b.rt = f, s.prog.Load(), s.routes.Load()
	for i := range batch {
		s.ingest(b, batch[i].Pkt)
	}
	s.execSegment(b)
	// The burst's last ack leaves twice, the copies sharing bytes: later
	// acks cover later windows, so losing it would cost its windows a timer.
	if c := b.out.closing; c != nil {
		p := b.out.packet(0)
		c.Shared, b.out.closing = true, nil
		*p = *c
		s.AcksRepeated.Add(1)
		s.forward(b, p)
	}
	if err := b.out.flush(s.label); err != nil {
		s.Errors.Add(1)
	}
	b.used = 0
	s.idleMu.Lock()
	s.idle = append(s.idle, b)
	s.idleMu.Unlock()
}

// takeBatch pops an idle working set, or builds one when every existing
// set is in use by a call further up the stack or on another goroutine.
func (s *SwitchNode) takeBatch() *batchState {
	var b *batchState
	s.idleMu.Lock()
	if n := len(s.idle); n > 0 {
		b, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.idleMu.Unlock()
	if b == nil {
		b = &batchState{}
	}
	return b
}

// ingest decodes one packet and either parks its windows in the open
// segment or forwards it.
func (s *SwitchNode) ingest(b *batchState, pkt *Packet) {
	if !ncp.IsNCP(pkt.Data) {
		s.execSegment(b)
		s.ForwardedRaw.Add(1)
		s.forward(b, pkt)
		return
	}
	d := b.scratch()
	if err := ncp.DecodeFullInto(pkt.Data, d); err != nil {
		// Corrupted NCP traffic is dropped, like a failed checksum anywhere.
		s.Errors.Add(1)
		return
	}
	h := &d.Header
	traced := h.Flags&ncp.FlagTrace != 0
	kp := b.prog.kernels[h.KernelID]
	if kp == nil || h.FragCount > 1 || h.Flags&ncp.FlagAck != 0 {
		// No kernel for this window here, a multi-packet window (switches
		// pass fragments through, §6), or an acknowledgment: normal
		// forwarding without kernel execution.
		s.execSegment(b)
		s.ForwardedRaw.Add(1)
		if traced {
			// Traced windows still record the pass-through hop, with the
			// queue depth at arrival (no kernel ran, so no latency/kernel).
			hops := append(d.Hops, ncp.Hop{
				Loc: uint16(b.prog.locID), Kind: ncp.HopSwitch,
				Event: ncp.EventForward, TimeNs: switchTimeNs(pkt.VTimeUs),
				QueueDepth: s.queueDepth(),
			})
			if out, err := ncp.MarshalHops(h, d.User, hops, d.Payload); err == nil {
				pkt.Data, pkt.Shared = out, false
			}
		}
		s.forward(b, pkt)
		return
	}

	// Multi-window packets (§4.2) unbatch at the first executing switch:
	// each window runs the kernel and follows its own forwarding decision.
	// The payload must split exactly; anything else is a framing error,
	// not a remainder to drop silently.
	n, per := max(1, int(h.BatchCount)), kp.payloadBytes
	if len(d.Payload) != per*n {
		s.Errors.Add(1)
		return
	}
	h.BatchCount = 1
	if pkt.Shared {
		// A broadcast copy: the device is about to write bytes its
		// siblings read, so the first switch to execute one takes its own.
		off := cap(pkt.Data) - cap(d.Payload) // where the payload starts
		pkt.Data, pkt.Shared = append([]byte(nil), pkt.Data...), false
		d.Payload = pkt.Data[off : off+len(d.Payload)]
	}
	// INT ingress snapshot: the queue depth every hop record of this
	// packet reports is the backlog when the packet arrived, probed once
	// (and only for traced windows — the untraced path stays flat).
	var qdepth uint16
	if traced {
		qdepth = s.queueDepth()
	}
	xonce := h.Flags&ncp.FlagExactlyOnce != 0
	user, hops, payload := d.User, d.Hops, d.Payload
	for k := 0; k < n; k++ {
		if k > 0 {
			prev := h
			d = b.scratch()
			h = &d.Header
			*h = *prev
			h.WindowSeq++
		}
		// A segment is one kernel's run of untraced windows; a traced
		// window is a segment of one, so exec_ns and its INT hop record
		// time that window alone.
		if kp != b.kp || traced {
			s.execSegment(b)
		}
		b.kp = kp
		b.wins = append(b.wins, batchWin{
			dec: d, hops: hops, pkt: pkt,
			// A reliable window for a non-idempotent kernel runs through the
			// device's duplicate shadow state, and the switch — not the
			// unreachable destination — acknowledges it when the kernel
			// consumes it on-path (drop/reflect/bcast): retransmits neither
			// double-apply nor time out (DESIGN §5.4).
			switchAcks: xonce && h.Flags&ncp.FlagAckRequest != 0,
			inPlace:    n == 1 && !traced,
			qdepth:     qdepth,
		})
		b.jobs = append(b.jobs, pisa.BatchJob{
			Raw: payload[k*per : (k+1)*per],
			Meta: pisa.WindowMeta{
				Seq:         uint64(h.WindowSeq),
				Len:         uint64(h.WindowLen),
				From:        uint64(h.FromRole),
				Sender:      uint64(h.Sender),
				Wid:         uint64(h.Wid),
				User:        user,
				ExactlyOnce: xonce,
			},
		})
		if traced {
			s.execSegment(b)
		}
	}
}

// execSegment executes the open segment through the device and routes
// every window's decision into the burst's collector. The segment's
// acknowledgments coalesce into range acks.
func (s *SwitchNode) execSegment(b *batchState) {
	if len(b.wins) == 0 {
		return
	}
	kp := b.kp
	// Time the pipeline only for traced windows: the measurement (two
	// clock reads + a histogram observe) never touches the untraced path.
	traced := b.wins[0].dec.Header.Flags&ncp.FlagTrace != 0
	var execStart time.Time
	if traced {
		execStart = time.Now()
	}
	err := s.sw.ExecWindowBatch(kp.k.ID, b.jobs, b.prog.locID)
	var execWallNs uint64
	if traced {
		execWallNs = uint64(time.Since(execStart))
		s.execNs.Observe(float64(execWallNs))
	}
	if err != nil {
		// Batch-level failure (no program / unknown kernel on the device):
		// every window in the segment is lost.
		s.Errors.Add(uint64(len(b.wins)))
	} else {
		var acks ackRun
		for i := range b.wins {
			w, j := &b.wins[i], &b.jobs[i]
			if j.Err != nil {
				s.Errors.Add(1)
				continue
			}
			s.KernelWindows.Add(1)
			kp.windows.Inc()
			if j.Dec.Suppressed {
				s.DupSuppressed.Add(1)
			}
			hops := w.hops
			if traced {
				hops = s.execHop(w, b.prog.locID, execWallNs)
			}
			s.route(b, w, j, hops, &acks)
		}
		s.flushAcks(b, &acks)
	}
	b.wins, b.jobs, b.kp = b.wins[:0], b.jobs[:0], nil
}

// execHop appends a traced window's exec record to its hop list. INT
// latency is the modeled pipeline delay when the fabric carries virtual
// time, else the measured kernel execution wall time (PackINT saturates
// at 24 bits).
func (s *SwitchNode) execHop(w *batchWin, locID uint32, execWallNs uint64) []ncp.Hop {
	lat := execWallNs
	if w.pkt.VTimeUs > 0 {
		lat = uint64(SwitchDelayUs * 1000)
	}
	if lat > math.MaxUint32 {
		lat = math.MaxUint32
	}
	// Full-capacity append: unbatched sub-windows each extend their own
	// copy rather than aliasing the shared prefix.
	return append(w.hops[:len(w.hops):len(w.hops)], ncp.Hop{
		Loc: uint16(locID), Kind: ncp.HopSwitch,
		Event: ncp.EventExec, TimeNs: switchTimeNs(w.pkt.VTimeUs + SwitchDelayUs),
		LatencyNs: uint32(lat), QueueDepth: w.qdepth, KernelID: w.dec.Header.KernelID,
	})
}
