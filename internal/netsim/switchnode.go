package netsim

import (
	"math"
	"sync"
	"sync/atomic"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncp"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// SwitchNode is a programmable switch on the fabric: a PISA device plus
// the NCP-aware forwarding behavior of Fig. 3b. Non-NCP packets and
// windows for unknown kernels take normal routing; recognized windows run
// through the loaded pipeline and then follow the kernel's forwarding
// decision (§4.1).
//
// The data path (switchbatch.go) is allocation-flat: its working set is
// reused burst after burst, per-kernel wire specs and counters are resolved once
// at Install, and window metadata binds to PHV slots through the device's
// compiled plan (no per-packet maps). State correctness under concurrent
// Receive calls comes from the device's one lock.
type SwitchNode struct {
	label  string
	sw     *pisa.Switch
	shared bool                      // device shared across tenants: SetObs leaves it alone
	routes atomic.Pointer[Routes]    // forwarding table (SetRouting), loaded once per burst
	prog   atomic.Pointer[swProgram] // kernel bindings (Install), loaded once per burst

	// Counters for the harness, homed in an obs registry under
	// switch.<label>.* (SetObs re-homes them into a deployment's registry;
	// the field types keep the atomic.Uint64 Add/Load surface).
	KernelWindows *obs.Counter // windows executed by kernels
	ForwardedRaw  *obs.Counter // non-NCP or unknown-kernel packets routed
	Errors        *obs.Counter
	Repacks       *obs.Counter // executed windows re-emitted, in place or re-serialized (one per broadcast)
	DupSuppressed *obs.Counter // exactly-once duplicates executed suppressed
	AcksSent      *obs.Counter // switch-emitted acks for consumed xonce windows
	AcksRepeated  *obs.Counter // second copies of each burst's last ack (not in AcksSent)

	obsMu sync.Mutex
	reg   *obs.Registry

	// execNs records per-window kernel execution wall time, observed only
	// for traced windows so the untraced path stays measurement-free.
	execNs *obs.Histogram

	// depthFn probes the switch's ingress backlog for INT stamping
	// (core.Deploy wires it to the fabric inbox).
	depthFn func() int

	// idle holds the working sets of finished bursts for the next ones,
	// one per ReceiveBurst call that was ever in flight at once. A plain
	// free list, not a sync.Pool: a pool strands a lone object in a per-P
	// slot and drops it at the second collection, and every rebuilt set
	// re-allocates a burst's worth of decode scratch (measured: +0.1
	// allocations per window on a streaming allreduce).
	idleMu sync.Mutex
	idle   []*batchState
}

// swProgram is what Install binds on the data path: the location id and,
// per kernel id, the precomputed wire layout and counter. Swapped whole,
// so Install on a live switch (a re-placement) never races a burst, and a
// burst sees one install's bindings throughout.
type swProgram struct {
	locID   uint32
	kernels map[uint32]*swKernel
}

// swKernel is one kernel's receive-path state: the per-window payload size
// and the per-kernel counter (resolved once, so the hot path takes no lock).
type swKernel struct {
	k            *pisa.Kernel
	payloadBytes int
	windows      *obs.Counter // switch.<label>.kernel.<name>.windows
}

// NewSwitchNode creates a switch for the given AND label.
func NewSwitchNode(label string, target pisa.TargetConfig) *SwitchNode {
	return newSwitchNode(label, pisa.NewSwitch(target), false)
}

// NewSwitchNodeShared wraps an existing PISA device owned by someone
// else — the multi-tenant path, where every tenant's fabric has its own
// node for a location but all of them share one physical device. The
// wrapper never loads programs onto the device (Install records only the
// tenant's wire bindings) and SetObs leaves the device's counters homed
// where the device owner put them.
func NewSwitchNodeShared(label string, dev *pisa.Switch) *SwitchNode {
	return newSwitchNode(label, dev, true)
}

func newSwitchNode(label string, dev *pisa.Switch, shared bool) *SwitchNode {
	s := &SwitchNode{label: label, sw: dev, shared: shared}
	s.SetRouting(&Routes{})
	s.prog.Store(&swProgram{})
	// A private registry until a deployment re-homes the counters: two
	// standalone switches with the same label must not share counts.
	s.SetObs(obs.NewRegistry())
	return s
}

// SetObs re-homes the switch's counters (and the underlying PISA
// device's) into the given registry. Call before traffic flows — counts
// accumulated in the previous registry stay there.
func (s *SwitchNode) SetObs(r *obs.Registry) {
	s.obsMu.Lock()
	s.reg = r
	p := "switch." + s.label + "."
	s.KernelWindows = r.Counter(p + "kernel_windows")
	s.ForwardedRaw = r.Counter(p + "forwarded_raw")
	s.Errors = r.Counter(p + "errors")
	s.Repacks = r.Counter(p + "repacks")
	s.DupSuppressed = r.Counter(p + "dup_suppressed")
	s.AcksSent = r.Counter(p + "acks_sent")
	s.AcksRepeated = r.Counter(p + "acks_repeated")
	s.execNs = r.Histogram(p+"exec_ns", ExecNsBuckets)
	for _, kp := range s.prog.Load().kernels {
		kp.windows = r.Counter(p + "kernel." + kp.k.Name + ".windows")
	}
	s.obsMu.Unlock()
	if !s.shared {
		s.sw.SetObs(r, s.label)
	}
}

// Label implements Node.
func (s *SwitchNode) Label() string { return s.label }

// Device exposes the underlying PISA switch (control-plane surface).
func (s *SwitchNode) Device() *pisa.Switch { return s.sw }

// Install loads a compiled program and publishes the control metadata
// the data plane needs — location id, per-kernel wire specs and counters
// — as one value, so a switch carrying traffic can take a moved location.
// A shared node skips the load: its owner (the tenancy) loads the merged
// program, and p is this tenant's tagged slice of it — the wire-binding
// view, whose kernel ids must match the ids the merged plan serves.
func (s *SwitchNode) Install(p *pisa.Program, locID uint32) error {
	if !s.shared {
		if err := s.sw.Load(p); err != nil {
			return err
		}
	}
	prog := &swProgram{locID: locID, kernels: map[uint32]*swKernel{}}
	s.obsMu.Lock()
	for _, k := range p.Kernels {
		prog.kernels[k.ID] = &swKernel{
			k:            k,
			payloadBytes: k.PayloadBytes(),
			windows:      s.reg.Counter("switch." + s.label + ".kernel." + k.Name + ".windows"),
		}
	}
	s.obsMu.Unlock()
	s.prog.Store(prog)
	return nil
}

// SetRouting installs the switch's forwarding table. The table is the
// switch's after the call; bursts in flight keep the one they loaded.
func (s *SwitchNode) SetRouting(rt *Routes) { s.routes.Store(rt) }

// SetRoutes installs a plain single-path next-hop table (SinglePath, no
// host directory), for a switch run without a controller (the baseline,
// bare-switch experiments and tests). The controller installs the full
// table with SetRouting.
func (s *SwitchNode) SetRoutes(next map[string]string) { s.SetRouting(SinglePath(next, nil)) }

// ExecNsBuckets is the bucket layout for per-window kernel execution
// time in nanoseconds: a 1-2.5-5 ladder from 100ns to 10ms.
var ExecNsBuckets = []float64{
	100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1e6, 2.5e6, 5e6, 1e7,
}

// SetDepthSource installs the inbox-depth probe INT records report. The
// deployment wires it to the fabric's inbox for this switch; nil (the
// default) reports depth 0. Call before traffic, like SetRoutes.
func (s *SwitchNode) SetDepthSource(fn func() int) { s.depthFn = fn }

// queueDepth reports the ingress backlog at window arrival for INT
// stamping. Saturates at 16 bits (the wire field).
func (s *SwitchNode) queueDepth() uint16 {
	if s.depthFn == nil {
		return 0
	}
	return uint16(min(s.depthFn(), math.MaxUint16))
}

// switchTimeNs converts a packet's virtual time to the hop-record clock.
func switchTimeNs(us float64) uint64 {
	if us <= 0 {
		return 0
	}
	return uint64(us * 1000)
}

// route applies an executed window's forwarding decision, sending into
// the burst's collector. acks is touched only when the window is one the
// switch acknowledges.
func (s *SwitchNode) route(b *batchState, w *batchWin, j *pisa.BatchJob, hops []ncp.Hop, acks *ackRun) {
	out := &b.out
	pkt, dec, flags := w.pkt, j.Dec, w.dec.Header.Flags
	// The window's reliable flags stay on pass-through (the destination
	// host acknowledges delivery) but are stripped from on-path outputs:
	// the switch acknowledges those itself, and the derived reflect/bcast
	// windows are new unreliable traffic, not the acknowledged window.
	if w.switchAcks && dec.Kind != interp.Pass {
		s.ackConsumed(b, w, acks)
		flags &^= ncp.FlagAckRequest | ncp.FlagExactlyOnce
	}
	vtime := pkt.VTimeUs + SwitchDelayUs
	src, targets := pkt.Src, []string{pkt.Dst}
	switch dec.Kind {
	case interp.Pass:
		if dec.Label != "" {
			targets[0] = dec.Label
		}
	case interp.Reflect:
		target, ok := b.rt.Hosts[w.dec.Header.Sender]
		if !ok {
			s.Errors.Add(1)
			return
		}
		src, targets[0], flags = s.label, target, flags|ncp.FlagReflected
	case interp.Bcast:
		// §4.1 verbatim: "_bcast() sends a window to all devices, one hop
		// away - in the overlay - from the current location". That
		// includes neighboring switches; loop prevention is kernel logic
		// (e.g. a phase flag in window data — see the hierarchical
		// AllReduce test), which is exactly the programmable-forwarding
		// control the paper gives kernels.
		src, flags = s.label, flags|ncp.FlagBcast
		targets = b.rt.bcastTargets(out.tr.Network(), s.label)
	default:
		// Dropped: a lone untraced window's packet is the switch's alone.
		if w.inPlace && len(out.spare) < maxSpare {
			out.spare = append(out.spare, pkt)
		}
		return
	}
	// The device deparsed the payload in place: a lone untraced window
	// leaves in its packet, resealed; a traced one (its hop list grows) or
	// one of a multi-window packet in fresh bytes. Both give the same bytes.
	if w.inPlace {
		pkt.Data = ncp.Reseal(pkt.Data, flags)
	} else {
		nh := w.dec.Header
		nh.Flags = flags
		var err error
		if pkt, err = out.marshal(&nh, j.Meta.User, hops, j.Raw); err != nil {
			s.Errors.Add(1)
			return
		}
	}
	s.Repacks.Add(1)
	// One set of bytes serves every broadcast neighbor: copies beyond the
	// first are other Packets over the same Data, all marked Shared.
	for i, to := range targets {
		p := pkt
		if i > 0 {
			p = out.packet(0)
		}
		p.Src, p.Dst, p.Data, p.Via, p.VTimeUs, p.Shared = src, to, pkt.Data, "", vtime, len(targets) > 1
		s.forward(b, p)
	}
}

// ackRun is an acknowledgment being assembled: consecutive consumed
// windows of one (sender, wid) that fit one ncp.AckSpan leave as a single
// range ack. The zero value is an empty run.
type ackRun struct {
	open   bool
	sender uint32     // the acknowledged host
	hdr    ncp.Header // the ack; WindowSeq is the base window
	more   uint64     // bitmap of the windows after the base
	target string
	vtime  float64 // departure time: the latest covered window's
}

// ackConsumed acknowledges an exactly-once reliable window the kernel
// consumed on-path (drop/reflect/bcast): the destination host will never
// see it, so the executing switch answers in its place. Duplicate
// (suppressed) windows are re-acknowledged the same way — the ack that
// prompted the retransmit was lost. The ack joins the open run when it
// continues it; otherwise the run is flushed and a new one starts. Same
// wire shape as the host runtime's ack; Sender names the acking location.
func (s *SwitchNode) ackConsumed(b *batchState, w *batchWin, run *ackRun) {
	h := &w.dec.Header
	vtime := w.pkt.VTimeUs + SwitchDelayUs
	if run.open && run.sender == h.Sender && run.hdr.Wid == h.Wid {
		// Unsigned distance: a window below the base wraps out of range.
		if d := h.WindowSeq - run.hdr.WindowSeq; d < ncp.AckSpan {
			if d > 0 {
				run.more |= 1 << (d - 1)
			}
			run.vtime = max(run.vtime, vtime)
			return
		}
	}
	s.flushAcks(b, run)
	target, ok := b.rt.Hosts[h.Sender]
	if !ok {
		s.Errors.Add(1)
		return
	}
	*run = ackRun{
		open:   true,
		sender: h.Sender,
		hdr: ncp.Header{
			Flags:     ncp.FlagAck,
			KernelID:  h.KernelID,
			WindowSeq: h.WindowSeq,
			WindowLen: h.WindowLen,
			Sender:    b.prog.locID,
			Wid:       h.Wid,
			FragCount: 1,
		},
		target: target,
		vtime:  vtime,
	}
}

// flushAcks emits the open run, if any, as one ack packet.
func (s *SwitchNode) flushAcks(b *batchState, run *ackRun) {
	if !run.open {
		return
	}
	run.open = false
	var bitmap [8]byte
	pkt, err := b.out.marshal(&run.hdr, nil, nil, ncp.AppendAckRange(bitmap[:0], run.more))
	if err != nil {
		s.Errors.Add(1)
		return
	}
	s.AcksSent.Add(1)
	pkt.Src, pkt.Dst, pkt.VTimeUs = s.label, run.target, run.vtime
	b.out.closing = pkt
	s.forward(b, pkt)
}

// forward queues pkt on the hop the burst's table picks for it
// (Routes.NextHop); a packet with nowhere to go is counted and dropped.
func (s *SwitchNode) forward(b *batchState, pkt *Packet) {
	hop, ok := b.rt.NextHop(b.out.tr, s.label, pkt)
	if !ok {
		s.Errors.Add(1)
		return
	}
	b.out.send(hop, pkt)
}
