package netsim

import (
	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// The batched receive path: the fabric drains a burst of packets from
// the switch's ring inbox and hands them over in one receiveBatch call.
// Consecutive plain windows for the same kernel form a segment that runs
// through pisa.ExecWindowBatch — one plan load, one pooled scratch, and
// the kernel's whole lock set acquired once for the segment — and their
// outputs leave through one SendBatch. Anything the vectorized path
// cannot take verbatim (non-NCP, acks, fragments, multi-window packets,
// traced windows, unknown kernels) flushes the open segment first and
// then goes through the ordinary per-packet process(), so per-source
// FIFO order is exactly what the old one-packet-at-a-time loop gave.

// batchWin is one window parked in the current segment, with everything
// its post-exec routing needs. sc owns the decoded header/user/hops the
// pointers alias; it returns to the pool after the flush.
type batchWin struct {
	sc         *nodeScratch
	pkt        *Packet
	from       string
	kp         *swKernel
	switchAcks bool
}

// batchState is the reusable per-switch working set of receiveBatch:
// the open segment (wins+jobs, parallel slices), its kernel id, and the
// output collector. Reused across calls — only the single drain
// goroutine touches it.
type batchState struct {
	kid  uint32
	wins []batchWin
	jobs []pisa.BatchJob
	out  batchOut
}

// batchOut queues the packets a flush produces and hands them to the
// transport in one SendBatch — per-destination order preserved — when
// the transport supports it; otherwise it degrades to pass-through.
type batchOut struct {
	inner Sender
	bs    BatchSender // nil: pass-through
	tos   []string
	pkts  []*Packet
}

func (b *batchOut) reset(f Sender) {
	b.inner = f
	b.bs, _ = f.(BatchSender)
	b.tos = b.tos[:0]
	b.pkts = b.pkts[:0]
}

func (b *batchOut) Send(from, to string, pkt *Packet) error {
	if b.bs == nil {
		return b.inner.Send(from, to, pkt)
	}
	b.tos = append(b.tos, to)
	b.pkts = append(b.pkts, pkt)
	return nil
}

func (b *batchOut) Network() *and.Network { return b.inner.Network() }

// flush sends everything queued; errors are the caller's to count.
func (b *batchOut) flush(from string) error {
	if b.bs == nil || len(b.pkts) == 0 {
		return nil
	}
	err := b.bs.SendBatch(from, b.tos, b.pkts)
	for i := range b.pkts {
		b.pkts[i] = nil
	}
	b.tos = b.tos[:0]
	b.pkts = b.pkts[:0]
	return err
}

// receiveBatch implements batchReceiver: the vectorized Fig. 3b dispatch
// over a drained burst. With the worker pool on, packets keep going
// through the pool one at a time (the pool already overlaps windows; the
// segment path would serialize them again).
func (s *SwitchNode) receiveBatch(f Sender, batch []delivery) {
	if s.execCh != nil {
		for i := range batch {
			s.execCh <- execJob{f: f, pkt: batch[i].pkt, from: batch[i].from}
		}
		return
	}
	b := &s.batch
	for i := range batch {
		pkt, from := batch[i].pkt, batch[i].from
		if !ncp.IsNCP(pkt.Data) {
			s.flushBatch(f, b)
			s.process(f, pkt, from)
			continue
		}
		sc := s.getScratch()
		if err := ncp.DecodeFullInto(pkt.Data, &sc.dec); err != nil {
			s.scratch.Put(sc)
			s.flushBatch(f, b)
			s.Errors.Add(1)
			continue
		}
		h := &sc.dec.Header
		kp := s.kplans[h.KernelID]
		if kp == nil || h.FragCount > 1 || h.BatchCount > 1 ||
			h.Flags&(ncp.FlagAck|ncp.FlagTrace) != 0 {
			// Pass-through, multi-packet, multi-window, or traced: the
			// per-packet path handles these (re-decoding — they are rare
			// relative to plain windows on a hot stream).
			s.scratch.Put(sc)
			s.flushBatch(f, b)
			s.process(f, pkt, from)
			continue
		}
		data, err := ncp.DecodePayloadInto(sc.data, sc.dec.Payload, kp.specs)
		sc.data = data
		if err != nil {
			s.scratch.Put(sc)
			s.flushBatch(f, b)
			s.Errors.Add(1)
			continue
		}
		if len(b.wins) > 0 && h.KernelID != b.kid {
			s.flushBatch(f, b)
		}
		b.kid = h.KernelID
		xonce := h.Flags&ncp.FlagExactlyOnce != 0
		b.wins = append(b.wins, batchWin{
			sc: sc, pkt: pkt, from: from, kp: kp,
			switchAcks: xonce && h.Flags&ncp.FlagAckRequest != 0,
		})
		b.jobs = append(b.jobs, pisa.BatchJob{
			Data: data,
			Meta: pisa.WindowMeta{
				Seq:         uint64(h.WindowSeq),
				Len:         uint64(h.WindowLen),
				From:        uint64(h.FromRole),
				Sender:      uint64(h.Sender),
				Wid:         uint64(h.Wid),
				User:        sc.dec.User,
				ExactlyOnce: xonce,
			},
		})
	}
	s.flushBatch(f, b)
}

// flushBatch executes the open segment through the device's batch path
// and routes every window's decision, collecting outputs for one
// SendBatch. Counting matches the per-packet path window for window,
// except that the segment's acknowledgments coalesce into range acks.
func (s *SwitchNode) flushBatch(f Sender, b *batchState) {
	if len(b.wins) == 0 {
		return
	}
	out := &b.out
	out.reset(f)
	if err := s.sw.ExecWindowBatch(b.kid, b.jobs, s.locID); err != nil {
		// Batch-level failure (no program / unknown kernel): every window
		// in the segment is lost, exactly as each would have been on the
		// per-packet path.
		s.Errors.Add(uint64(len(b.wins)))
	} else {
		var acks ackRun
		for i := range b.wins {
			w := &b.wins[i]
			j := &b.jobs[i]
			if j.Err != nil {
				s.Errors.Add(1)
				continue
			}
			s.KernelWindows.Add(1)
			w.kp.windows.Inc()
			if j.Dec.Suppressed {
				s.DupSuppressed.Add(1)
			}
			sc := w.sc
			s.route(out, w.pkt, w.from, w.kp, &sc.dec.Header, sc.dec.User, sc.dec.Hops, sc.data, sc, j.Dec, w.switchAcks, &acks)
		}
		s.flushAcks(out, &acks)
	}
	if err := out.flush(s.label); err != nil {
		s.Errors.Add(1)
	}
	// Release only the pointer-bearing fields: the slices are reset to
	// length zero and every value field is overwritten by the next
	// segment's appends, so full-struct zeroing would be pure copy cost on
	// the hot path.
	for i := range b.wins {
		s.scratch.Put(b.wins[i].sc)
		w := &b.wins[i]
		w.sc, w.pkt, w.kp, w.from = nil, nil, nil, ""
	}
	b.wins = b.wins[:0]
	for i := range b.jobs {
		j := &b.jobs[i]
		j.Data, j.Meta.User, j.Err, j.Dec.Label = nil, nil, nil, ""
	}
	b.jobs = b.jobs[:0]
}
