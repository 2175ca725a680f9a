package pisa

import "ncl/internal/fifo"

// Exactly-once shadow state — the per-device duplicate filter behind
// FlagExactlyOnce (the SwitchML-style "seen bitmap" DESIGN §5.4
// describes). Retransmitted reliable windows re-enter the pipeline; for
// non-idempotent kernels the stateful ALUs must not re-apply. The shadow
// records, per (window slot, sender), the invocation id of the
// contribution already folded into register state:
//
//   - no entry                     -> fresh: record and execute;
//   - entry, current or previous
//     wid                          -> duplicate: suppress state-mutating
//     SALUs;
//   - entry, unseen wid            -> a new invocation reusing the slot
//     (the next aggregation round, after the kernel's _net_ reset path):
//     recycle the entry in place and execute.
//
// Each entry remembers the previous invocation's wid as well as the
// current one — the moral equivalent of SwitchML's slot version bit.
// Host retransmits stop once the window is acknowledged, but the fabric
// itself can duplicate a packet and deliver the copy late, after the
// sender has moved to the next invocation on the same slot; matching
// against the previous wid suppresses those stragglers too. Like the
// version bit, this covers one generation of lateness: a duplicate
// surfacing two full invocations later would re-apply, which requires a
// packet to outlive two round barriers (every later contribution acked)
// — outside the transport's delivery envelope.
//
// Both execution engines (the compiled plan and the Reference
// tree-walker) share this one implementation so the differential tests
// can hold them bit-identical under duplicate injection.

// shadowKey identifies one sender's contribution slot. tenant is the
// kernel id's tenant slot (0 for untenanted programs): tenants have
// independent sender/seq spaces, so two tenants' windows with colliding
// (seq, sender, wid) must never suppress each other on a shared device.
type shadowKey struct {
	tenant uint32
	seq    uint64
	sender uint64
}

// shadowSlotsCap bounds live shadow entries per device; the oldest
// entries are evicted in insertion order beyond it. Sized for 64k
// in-flight (slot, sender) pairs — far above the reliable transport's
// in-flight window — so eviction only trims rounds long since completed.
const shadowSlotsCap = 1 << 16

// shadowEntry is one (slot, sender) record: the current invocation's wid
// and, once the slot has been recycled, the previous one (the "version
// bit" against late fabric duplicates).
type shadowEntry struct {
	cur, prev uint64
	hasPrev   bool
}

// shadowState is the device-wide duplicate filter. It takes no lock of
// its own: the engine that owns it (Switch or Reference) runs every
// window under its single mutex.
type shadowState struct {
	slots     *fifo.Map[shadowKey, shadowEntry]
	evictions uint64 // live entries evicted since the owner last published them
}

func newShadowState() *shadowState {
	return &shadowState{slots: fifo.New[shadowKey, shadowEntry](shadowSlotsCap)}
}

// admit records a window's contribution and reports whether it is fresh
// (true: execute normally) or a duplicate of one already applied (false:
// suppress state-mutating ops). size is the live entry count after
// admission, for the shadow_slots gauge.
func (s *shadowState) admit(tenant uint32, seq, sender, wid uint64) (fresh bool, size int) {
	k := shadowKey{tenant, seq, sender}
	e, ok := s.slots.Get(k)
	if ok && (e.cur == wid || (e.hasPrev && e.prev == wid)) {
		return false, s.slots.Len()
	}
	// A new slot, or a new invocation reusing one (the entry is recycled
	// in place and keeps its position; e.cur becomes its previous wid).
	s.evictions += uint64(s.slots.Put(k, shadowEntry{cur: wid, prev: e.cur, hasPrev: ok}))
	return true, s.slots.Len()
}

// forget rolls back an admission whose window then failed to execute
// (the retransmit must be allowed to re-apply). Only the matching
// current wid is rolled back, so a later round's entry is never dropped
// by a stale error.
func (s *shadowState) forget(tenant uint32, seq, sender, wid uint64) {
	k := shadowKey{tenant, seq, sender}
	if e, ok := s.slots.Get(k); ok && e.cur == wid {
		if e.hasPrev {
			s.slots.Put(k, shadowEntry{cur: e.prev})
		} else {
			s.slots.Delete(k)
		}
	}
}

// size reports the live entry count.
func (s *shadowState) size() int {
	return s.slots.Len()
}

// saluMutates reports whether a SALU micro-program can change its
// register element: any micro-op writing the MReg slot. A program that
// never writes MReg stores back the value it read — semantically a pure
// read — and stays live on duplicate windows (KVS-style lookups keep
// answering).
func saluMutates(sa *SALU) bool {
	for _, mo := range sa.Prog {
		if mo.Dst == MReg {
			return true
		}
	}
	return false
}

// MutatesState reports whether any of the kernel's stateful-ALU programs
// writes register state. The runtime uses it to decide which kernels
// need FlagExactlyOnce on reliable sends (a kernel that only reads
// switch state is idempotent under retransmission).
func (k *Kernel) MutatesState() bool {
	for _, pass := range k.Passes {
		for _, st := range pass {
			for _, sa := range st.SALUs {
				if saluMutates(sa) {
					return true
				}
			}
		}
	}
	return false
}
