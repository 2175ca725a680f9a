package pisa

import (
	"fmt"
	"maps"
	"sync"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/types"
	"ncl/internal/obs"
)

// Switch is a loaded, running PISA device: a compiled execution plan
// plus its mutable state (register arrays and table entries). Load is
// the compile step: it resolves every name to a dense index and swaps
// the plan in. One mutex serialises the device, as a PISA driver holds
// control-plane writes and reprogramming back until the packet in
// flight is done: a batch holds it from the plan lookup to its last
// window, and every control operation from its lookup to its return. A
// load or control write therefore waits for the batch in flight, and a
// batch never straddles two plans.
type Switch struct {
	target TargetConfig

	mu   sync.Mutex
	plan *plan
	met  *pisaMetrics
	// obsReg/obsLabel are what SetObs stored, so Load can rebuild met
	// when a merged program brings new tenants.
	obsReg   *obs.Registry
	obsLabel string
}

// execScratch is one kernel's per-batch working set: the value file and
// the batch's counter deltas, which execBatch publishes once per call
// instead of once per window, pass and stage. Batches run under the
// device lock, so each kernel owns exactly one.
type execScratch struct {
	// vals is the value file, one uint64 per slot: the PHV fields [0,n),
	// one pending slot per field [n,2n) (where a stage's units write), the
	// SALU micro slots, then the interned constants at the tail. Only the
	// fields are reset per window.
	vals []uint64
	raw  []byte // a Data job's payload bytes

	passes, tableHits, tableMisses, dupSuppressed uint64
	stageExecs                                    []uint64 // by position in the pass
	shadowSlots                                   int      // after the batch's last admission; -1: none
}

// pisaMetrics caches the device's registry handles, named
// pisa.<label>.*. Stage counters are indexed by the stage's position in
// its pass (sized to the target's stage budget at SetObs time). Every
// handle is atomic, so a registry can be scraped while a batch runs.
type pisaMetrics struct {
	windows       *obs.Counter // pisa.<label>.windows
	passes        *obs.Counter // pisa.<label>.passes
	tableHits     *obs.Counter // pisa.<label>.table_hits
	tableMisses   *obs.Counter // pisa.<label>.table_misses
	dupSuppressed *obs.Counter // pisa.<label>.dup_suppressed
	shadowSlots   *obs.Gauge   // pisa.<label>.shadow_slots
	shadowEvicted *obs.Counter // pisa.<label>.shadow_evictions
	stageExecs    []*obs.Counter
	// tenantWindows counts windows per tenant slot on a merged
	// multi-tenant program (pisa.<label>.tenant.<id>.windows). nil on
	// single-tenant devices, so the untenanted hot path pays one branch.
	tenantWindows map[uint32]*obs.Counter
}

// NewSwitch creates an empty switch with the given resources. Counters
// start in a private registry; SetObs re-homes them (deployments use
// theirs, standalone devices keep isolation).
func NewSwitch(target TargetConfig) *Switch {
	sw := &Switch{target: target}
	sw.SetObs(obs.NewRegistry(), target.Name)
	return sw
}

// SetObs re-homes the device's execution counters into the given
// registry under pisa.<label>.* (deployments call this before traffic;
// counts accumulated in the previous registry stay there). The registry
// is remembered so a later Load can add per-tenant counters for a merged
// program's tenants.
func (sw *Switch) SetObs(r *obs.Registry, label string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.obsReg, sw.obsLabel = r, label
	sw.refreshMetrics()
}

// refreshMetrics rebuilds the metrics struct from the stored registry,
// including per-tenant window counters for the loaded program's tenant
// slices. The caller holds sw.mu.
func (sw *Switch) refreshMetrics() {
	r, p := sw.obsReg, "pisa."+sw.obsLabel+"."
	m := &pisaMetrics{
		windows:       r.Counter(p + "windows"),
		passes:        r.Counter(p + "passes"),
		tableHits:     r.Counter(p + "table_hits"),
		tableMisses:   r.Counter(p + "table_misses"),
		dupSuppressed: r.Counter(p + "dup_suppressed"),
		shadowSlots:   r.Gauge(p + "shadow_slots"),
		shadowEvicted: r.Counter(p + "shadow_evictions"),
		stageExecs:    make([]*obs.Counter, sw.target.Stages),
	}
	for i := range m.stageExecs {
		m.stageExecs[i] = r.Counter(fmt.Sprintf("%sstage.%d.execs", p, i))
	}
	if pl := sw.plan; pl != nil && len(pl.program.Tenants) > 0 {
		m.tenantWindows = make(map[uint32]*obs.Counter, len(pl.program.Tenants))
		for _, ti := range pl.program.Tenants {
			m.tenantWindows[uint32(ti.Slot)] = r.Counter(p + "tenant." + ti.ID + ".windows")
		}
	}
	sw.met = m
}

// WindowsProcessed reports the total windows executed (all kernels).
func (sw *Switch) WindowsProcessed() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.met.windows.Load()
}

// PassesExecuted reports the total pipeline passes, recirculations
// included.
func (sw *Switch) PassesExecuted() uint64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.met.passes.Load()
}

// Target returns the switch's resource configuration.
func (sw *Switch) Target() TargetConfig { return sw.target }

// Load validates a program, compiles it into an execution plan with
// fresh state, and swaps the plan in once the batch in flight is done.
// It is the moral equivalent of the P4 backend accepting the program and
// the controller pushing it to the device.
func (sw *Switch) Load(p *Program) error { return sw.swap(p, false) }

// LoadPreserving validates and compiles like Load but carries mutable
// state over from the currently-loaded plan: register arrays and match
// tables that keep their name and shape retain their values, and the
// exactly-once shadow state survives. This is the multi-tenant admission
// path — re-merging the tenant set on AddTenant/RemoveTenant must not
// disturb surviving tenants' in-flight aggregation state, while a
// removed tenant's slices are reclaimed simply by not appearing in the
// new program. The copy and the swap are one step under the device lock,
// so no window lands in the old plan after its state was copied. With no
// plan loaded it behaves exactly like Load.
func (sw *Switch) LoadPreserving(p *Program) error { return sw.swap(p, true) }

func (sw *Switch) swap(p *Program, preserve bool) error {
	if err := p.Validate(sw.target); err != nil {
		return err
	}
	pl, err := compilePlan(p)
	if err != nil {
		return err
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if old := sw.plan; preserve && old != nil {
		// Shadow entries are keyed by tenant slot, and slots are never
		// reused, so carrying the filter over cannot leak suppression
		// across tenants.
		pl.shadow = old.shadow
		for name, ni := range pl.regIdx {
			oi, ok := old.regIdx[name]
			if !ok {
				continue
			}
			or, nr := old.regs[oi], pl.regs[ni]
			if or.bits == nr.bits && or.signed == nr.signed && len(or.vals) == len(nr.vals) {
				copy(nr.vals, or.vals)
			}
		}
		for name, ni := range pl.tableIdx {
			if oi, ok := old.tableIdx[name]; ok {
				maps.Copy(pl.tables[ni], old.tables[oi])
			}
		}
	}
	sw.plan = pl
	sw.refreshMetrics()
	return nil
}

// Program returns the loaded program (nil before Load).
func (sw *Switch) Program() *Program {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.plan == nil {
		return nil
	}
	return sw.plan.program
}

// UserFields returns the user _win_ field names in NCP wire order for
// the loaded program (nil before Load). Switch nodes bind packet user
// values to PHV meta slots with this order.
func (sw *Switch) UserFields() []string {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.plan == nil {
		return nil
	}
	return sw.plan.userFields
}

// InstallEntry adds/overwrites an exact-match entry (control plane; this
// is how ncl::Map insertions reach the switch, §4.3).
func (sw *Switch) InstallEntry(table string, key, val uint64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.lookupTable(table)
	if err == nil {
		t[key] = val
	}
	return err
}

// LookupEntry reads an exact-match entry (control plane / debugging —
// the placement engine's re-placement tests audit MAT survival with it).
// The boolean reports whether the key is present.
func (sw *Switch) LookupEntry(table string, key uint64) (uint64, bool, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.lookupTable(table)
	val, ok := t[key]
	return val, ok, err
}

// DeleteEntry removes an exact-match entry.
func (sw *Switch) DeleteEntry(table string, key uint64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	t, err := sw.lookupTable(table)
	delete(t, key)
	return err
}

// lookupTable resolves a table name against the loaded plan (nil and an
// error when there is none). The caller holds sw.mu.
func (sw *Switch) lookupTable(table string) (map[uint64]uint64, error) {
	if sw.plan != nil {
		if i, ok := sw.plan.tableIdx[table]; ok {
			return sw.plan.tables[i], nil
		}
	}
	return nil, fmt.Errorf("pisa: no table %q", table)
}

// WriteRegister writes one register element (control plane; _ctrl_
// variables are written this way).
func (sw *Switch) WriteRegister(name string, idx int, val uint64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	r, err := sw.lookupRegister(name, idx)
	if err != nil {
		return err
	}
	r.vals[idx] = normalize(val, r.bits, r.signed)
	return nil
}

// ReadRegister reads one register element (control plane / debugging).
func (sw *Switch) ReadRegister(name string, idx int) (uint64, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	r, err := sw.lookupRegister(name, idx)
	if err != nil {
		return 0, err
	}
	return r.vals[idx], nil
}

// lookupRegister resolves a register element against the loaded plan.
// The caller holds sw.mu.
func (sw *Switch) lookupRegister(name string, idx int) (*regArray, error) {
	if sw.plan == nil {
		return nil, fmt.Errorf("pisa: no register %q", name)
	}
	i, ok := sw.plan.regIdx[name]
	if !ok {
		return nil, fmt.Errorf("pisa: no register %q", name)
	}
	r := sw.plan.regs[i]
	if idx < 0 || idx >= len(r.vals) {
		return nil, fmt.Errorf("pisa: register %s index %d out of range", name, idx)
	}
	return r, nil
}

// normalize truncates/sign-extends to the canonical 64-bit form.
func normalize(v uint64, bits int, signed bool) uint64 {
	if signed {
		return types.SignExtend(v, bits)
	}
	return v & types.TruncMask(bits)
}

// publish adds the batch's counter deltas, and the evictions of the
// device's shadow, to the registry and zeroes them.
func (s *execScratch) publish(met *pisaMetrics, shadow *shadowState) {
	flush := func(c *obs.Counter, n *uint64) {
		if *n != 0 {
			c.Add(*n)
			*n = 0
		}
	}
	flush(met.passes, &s.passes)
	flush(met.tableHits, &s.tableHits)
	flush(met.tableMisses, &s.tableMisses)
	flush(met.dupSuppressed, &s.dupSuppressed)
	flush(met.shadowEvicted, &shadow.evictions)
	for si := range s.stageExecs {
		flush(met.stageExecs[si], &s.stageExecs[si])
	}
	if s.shadowSlots >= 0 {
		met.shadowSlots.Set(int64(s.shadowSlots))
		s.shadowSlots = -1
	}
}

// WindowMeta carries per-window metadata bound through the kernel plan's
// precompiled slots: the builtin NCP header fields plus the user _win_
// values in the kernel's wire order (Switch.UserFields unless the kernel
// carries its own). It replaces interp.Window's per-packet
// map[string]uint64 on the switch data plane.
type WindowMeta struct {
	Seq    uint64
	Len    uint64
	From   uint64
	Sender uint64
	Wid    uint64
	User   []uint64
	// ExactlyOnce routes the window through the device's duplicate
	// shadow state (keyed on Seq/Sender/Wid): duplicates execute with
	// state-mutating SALUs suppressed. Set from ncp.FlagExactlyOnce.
	ExactlyOnce bool
}

// BatchJob is one window in an ExecWindowBatch call; Dec and Err are
// filled per window by the call. Raw is the window's payload bytes in NCP
// wire order (on the switch, the packet's own), parsed into the PHV and
// deparsed back in place. A job without Raw carries Data, encoded into
// scratch bytes for the same core and decoded back.
type BatchJob struct {
	Data [][]uint64
	Raw  []byte
	Meta WindowMeta
	Dec  interp.Decision
	Err  error
}

// kernel resolves a kernel id against the loaded plan. The caller holds
// sw.mu.
func (sw *Switch) kernel(kernelID uint32) (*kernelPlan, error) {
	if sw.plan == nil {
		return nil, fmt.Errorf("pisa: no program loaded")
	}
	kp := sw.plan.kernels[kernelID]
	if kp == nil {
		return nil, fmt.Errorf("pisa: no kernel with id %d", kernelID)
	}
	return kp, nil
}

// ExecWindow adapts the interpreter's window convention (name-keyed
// Meta) to the execution core: one BatchJob, the user values laid out in
// the kernel plan's wire order. It makes the two engines directly
// comparable and serves one-shot debugging; the data plane builds its
// jobs itself and calls ExecWindowBatch.
func (sw *Switch) ExecWindow(kernelID uint32, win *interp.Window) (interp.Decision, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	kp, err := sw.kernel(kernelID)
	if err != nil {
		return interp.Decision{}, err
	}
	var user []uint64
	if n := len(kp.userFields); n > 0 {
		user = make([]uint64, n)
		for i, name := range kp.userFields {
			user[i] = win.Meta[name]
		}
	}
	job := [1]BatchJob{{Data: win.Data, Meta: WindowMeta{
		Seq:         win.Meta["seq"],
		Len:         win.Meta["len"],
		From:        win.Meta["from"],
		Sender:      win.Meta["sender"],
		Wid:         win.Meta["wid"],
		User:        user,
		ExactlyOnce: win.ExactlyOnce,
	}}}
	sw.execBatch(kp, job[:], uint32(win.Loc))
	return job[0].Dec, job[0].Err
}

// ExecWindowBatch is the device's execution core: it runs one kernel over
// a batch of windows (a batch of one is the degenerate case). It holds
// the device lock from the plan lookup to the last window, so the batch
// runs on one plan and no load or control write lands inside it. Windows
// execute sequentially in batch order, so SALU read-modify-write
// atomicity and exactly-once suppression hold per window.
//
// A batch-level problem (no program, unknown kernel) returns an error
// with no window executed. Per-window failures land in jobs[i].Err and
// do not stop the rest of the batch; a failed exactly-once window's
// shadow admission is rolled back so its retransmit can apply.
func (sw *Switch) ExecWindowBatch(kernelID uint32, jobs []BatchJob, loc uint32) error {
	if len(jobs) == 0 {
		return nil
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	kp, err := sw.kernel(kernelID)
	if err != nil {
		return err
	}
	sw.execBatch(kp, jobs, loc)
	return nil
}

// execBatch runs jobs on kp's one scratch. The caller holds sw.mu.
func (sw *Switch) execBatch(kp *kernelPlan, jobs []BatchJob, loc uint32) {
	pl, met := sw.plan, sw.met
	met.windows.Add(uint64(len(jobs)))
	if met.tenantWindows != nil {
		if c := met.tenantWindows[kp.tenant]; c != nil {
			c.Add(uint64(len(jobs)))
		}
	}
	s := &kp.scratch
	defer s.publish(met, pl.shadow)
	phv := s.vals[:kp.numFields]
	for i := range jobs {
		j := &jobs[i]
		raw := j.Raw
		if raw == nil {
			if raw, j.Err = s.raw, kp.encode(j.Data, s.raw); j.Err != nil {
				continue
			}
		} else if len(raw) != kp.payloadBytes {
			j.Err = fmt.Errorf("pisa: window payload is %d bytes, kernel %s takes %d", len(raw), kp.k.Name, kp.payloadBytes)
			continue
		}
		clear(phv)
		kp.parse(raw, phv)
		builtin := [metaUser0]uint64{j.Meta.Seq, j.Meta.Len, j.Meta.From, j.Meta.Sender, j.Meta.Wid}
		for _, mb := range kp.metaBind {
			var v uint64
			if mb.src < metaUser0 {
				v = builtin[mb.src]
			} else if ui := mb.src - metaUser0; ui < len(j.Meta.User) {
				v = j.Meta.User[ui]
			}
			phv[mb.f] = mb.norm.apply(v)
		}
		if kp.locField != NoField {
			phv[kp.locField] = uint64(loc)
		}
		// Exactly-once admission: a fresh window (or a recycled slot)
		// executes normally; a duplicate executes with its state-mutating
		// SALUs suppressed.
		fresh, suppress := false, false
		if j.Meta.ExactlyOnce {
			fresh, s.shadowSlots = pl.shadow.admit(kp.tenant, j.Meta.Seq, j.Meta.Sender, j.Meta.Wid)
			if suppress = !fresh; suppress {
				s.dupSuppressed++
			}
		}
		if err := kp.execPasses(s, suppress); err != nil {
			if fresh {
				// Roll the admission back: the retransmit must be allowed to
				// apply.
				pl.shadow.forget(kp.tenant, j.Meta.Seq, j.Meta.Sender, j.Meta.Wid)
			}
			j.Err = err
			continue
		}
		kp.deparse(raw, phv)
		if j.Raw == nil {
			kp.decode(raw, j.Data)
		}
		j.Dec = kp.decision(pl, phv)
		j.Dec.Suppressed = suppress
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
