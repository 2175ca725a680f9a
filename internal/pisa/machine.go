package pisa

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ncl/internal/ncl/interp"
	"ncl/internal/ncl/types"
	"ncl/internal/obs"
)

// Switch is a loaded, running PISA device: a compiled execution plan
// plus its mutable state (register arrays and table entries). Load is
// the compile step: it resolves every name to a dense index and swaps
// the plan in atomically, so the data plane reads program structure
// lock-free. State locking is fine-grained — one mutex per register
// array, one RWMutex per table — so windows touching disjoint state
// execute concurrently, like independent packets in a real PISA
// pipeline.
type Switch struct {
	target TargetConfig

	plan atomic.Pointer[plan]
	met  atomic.Pointer[pisaMetrics]

	loadMu sync.Mutex // serializes Load (plan construction + swap)

	// obsMu guards the registry/label SetObs stored so Load can rebuild
	// the metrics struct when a merged program brings new tenants.
	obsMu    sync.Mutex
	obsReg   *obs.Registry
	obsLabel string
}

// execScratch is one kernel's pooled per-batch working set: the value file
// (kernelPlan.image) and the batch's counter deltas, which execBatch
// publishes once per call instead of once per window, pass and stage.
type execScratch struct {
	vals []uint64
	raw  []byte // a Data job's payload bytes

	passes, tableHits, tableMisses, dupSuppressed uint64
	stageExecs                                    []uint64 // by position in the pass
	shadowSlots                                   int      // after the batch's last admission; -1: none
}

// pisaMetrics caches the device's registry handles, named
// pisa.<label>.*. Stage counters are indexed by the stage's position in
// its pass (sized to the target's stage budget at SetObs time). The
// struct is published through an atomic pointer and every handle is
// itself atomic, so a batch publishes its counts without any lock.
type pisaMetrics struct {
	windows       *obs.Counter // pisa.<label>.windows
	passes        *obs.Counter // pisa.<label>.passes
	tableHits     *obs.Counter // pisa.<label>.table_hits
	tableMisses   *obs.Counter // pisa.<label>.table_misses
	dupSuppressed *obs.Counter // pisa.<label>.dup_suppressed
	shadowSlots   *obs.Gauge   // pisa.<label>.shadow_slots
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
	sw.obsMu.Lock()
	sw.obsReg = r
	sw.obsLabel = label
	sw.obsMu.Unlock()
	sw.refreshMetrics()
}

// refreshMetrics rebuilds the atomic metrics struct from the stored
// registry, including per-tenant window counters for the currently
// loaded program's tenant slices.
func (sw *Switch) refreshMetrics() {
	sw.obsMu.Lock()
	r, label := sw.obsReg, sw.obsLabel
	sw.obsMu.Unlock()
	p := "pisa." + label + "."
	m := &pisaMetrics{
		windows:       r.Counter(p + "windows"),
		passes:        r.Counter(p + "passes"),
		tableHits:     r.Counter(p + "table_hits"),
		tableMisses:   r.Counter(p + "table_misses"),
		dupSuppressed: r.Counter(p + "dup_suppressed"),
		shadowSlots:   r.Gauge(p + "shadow_slots"),
		stageExecs:    make([]*obs.Counter, sw.target.Stages),
	}
	for i := range m.stageExecs {
		m.stageExecs[i] = r.Counter(fmt.Sprintf("%sstage.%d.execs", p, i))
	}
	if pl := sw.plan.Load(); pl != nil && len(pl.program.Tenants) > 0 {
		m.tenantWindows = make(map[uint32]*obs.Counter, len(pl.program.Tenants))
		for _, ti := range pl.program.Tenants {
			m.tenantWindows[uint32(ti.Slot)] = r.Counter(p + "tenant." + ti.ID + ".windows")
		}
	}
	sw.met.Store(m)
}

// WindowsProcessed reports the total windows executed (all kernels).
func (sw *Switch) WindowsProcessed() uint64 {
	return sw.met.Load().windows.Load()
}

// PassesExecuted reports the total pipeline passes, recirculations
// included.
func (sw *Switch) PassesExecuted() uint64 {
	return sw.met.Load().passes.Load()
}

// Target returns the switch's resource configuration.
func (sw *Switch) Target() TargetConfig { return sw.target }

// Load validates a program, compiles it into an execution plan with
// fresh state, and atomically swaps the plan in. It is the moral
// equivalent of the P4 backend accepting the program and the controller
// pushing it to the device.
func (sw *Switch) Load(p *Program) error {
	if err := p.Validate(sw.target); err != nil {
		return err
	}
	pl, err := compilePlan(p)
	if err != nil {
		return err
	}
	sw.loadMu.Lock()
	sw.plan.Store(pl)
	sw.loadMu.Unlock()
	sw.refreshMetrics()
	return nil
}

// LoadPreserving validates and compiles like Load but carries mutable
// state over from the currently-loaded plan: register arrays and match
// tables that keep their name and shape retain their values, and the
// exactly-once shadow state survives. This is the multi-tenant admission
// path — re-merging the tenant set on AddTenant/RemoveTenant must not
// disturb surviving tenants' in-flight aggregation state, while a
// removed tenant's slices are reclaimed simply by not appearing in the
// new program. With no plan loaded it behaves exactly like Load.
func (sw *Switch) LoadPreserving(p *Program) error {
	if err := p.Validate(sw.target); err != nil {
		return err
	}
	pl, err := compilePlan(p)
	if err != nil {
		return err
	}
	sw.loadMu.Lock()
	if old := sw.plan.Load(); old != nil {
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
			if or.bits != nr.bits || or.signed != nr.signed || len(or.vals) != len(nr.vals) {
				continue
			}
			or.mu.Lock()
			copy(nr.vals, or.vals)
			or.mu.Unlock()
		}
		for name, ni := range pl.tableIdx {
			oi, ok := old.tableIdx[name]
			if !ok {
				continue
			}
			ot, nt := old.tables[oi], pl.tables[ni]
			ot.mu.RLock()
			for k, v := range ot.entries {
				nt.entries[k] = v
			}
			ot.mu.RUnlock()
		}
	}
	sw.plan.Store(pl)
	sw.loadMu.Unlock()
	sw.refreshMetrics()
	return nil
}

// Program returns the loaded program (nil before Load).
func (sw *Switch) Program() *Program {
	pl := sw.plan.Load()
	if pl == nil {
		return nil
	}
	return pl.program
}

// UserFields returns the user _win_ field names in NCP wire order for
// the loaded program (nil before Load). Switch nodes bind packet user
// values to PHV meta slots with this order.
func (sw *Switch) UserFields() []string {
	pl := sw.plan.Load()
	if pl == nil {
		return nil
	}
	return pl.userFields
}

// InstallEntry adds/overwrites an exact-match entry (control plane; this
// is how ncl::Map insertions reach the switch, §4.3).
func (sw *Switch) InstallEntry(table string, key, val uint64) error {
	t, err := sw.lookupTable(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.entries[key] = val
	t.mu.Unlock()
	return nil
}

// LookupEntry reads an exact-match entry (control plane / debugging —
// the placement engine's re-placement tests audit MAT survival with it).
// The boolean reports whether the key is present.
func (sw *Switch) LookupEntry(table string, key uint64) (uint64, bool, error) {
	t, err := sw.lookupTable(table)
	if err != nil {
		return 0, false, err
	}
	t.mu.Lock()
	val, ok := t.entries[key]
	t.mu.Unlock()
	return val, ok, nil
}

// DeleteEntry removes an exact-match entry.
func (sw *Switch) DeleteEntry(table string, key uint64) error {
	t, err := sw.lookupTable(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.entries, key)
	t.mu.Unlock()
	return nil
}

func (sw *Switch) lookupTable(table string) (*matTable, error) {
	pl := sw.plan.Load()
	if pl == nil {
		return nil, fmt.Errorf("pisa: no table %q", table)
	}
	i, ok := pl.tableIdx[table]
	if !ok {
		return nil, fmt.Errorf("pisa: no table %q", table)
	}
	return pl.tables[i], nil
}

// WriteRegister writes one register element (control plane; _ctrl_
// variables are written this way).
func (sw *Switch) WriteRegister(name string, idx int, val uint64) error {
	r, err := sw.lookupRegister(name)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < 0 || idx >= len(r.vals) {
		return fmt.Errorf("pisa: register %s index %d out of range", name, idx)
	}
	r.vals[idx] = normalize(val, r.bits, r.signed)
	return nil
}

// ReadRegister reads one register element (control plane / debugging).
func (sw *Switch) ReadRegister(name string, idx int) (uint64, error) {
	r, err := sw.lookupRegister(name)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx < 0 || idx >= len(r.vals) {
		return 0, fmt.Errorf("pisa: register %s index %d out of range", name, idx)
	}
	return r.vals[idx], nil
}

func (sw *Switch) lookupRegister(name string) (*regArray, error) {
	pl := sw.plan.Load()
	if pl == nil {
		return nil, fmt.Errorf("pisa: no register %q", name)
	}
	i, ok := pl.regIdx[name]
	if !ok {
		return nil, fmt.Errorf("pisa: no register %q", name)
	}
	return pl.regs[i], nil
}

// normalize truncates/sign-extends to the canonical 64-bit form.
func normalize(v uint64, bits int, signed bool) uint64 {
	if signed {
		return types.SignExtend(v, bits)
	}
	return v & types.TruncMask(bits)
}

// getScratch returns a pooled scratch for the kernel, or a fresh one whose
// value file starts as the plan's image (execBatch resets only the fields).
func (kp *kernelPlan) getScratch() *execScratch {
	if s, _ := kp.scratch.Get().(*execScratch); s != nil {
		return s
	}
	return &execScratch{
		vals:        append([]uint64(nil), kp.image...),
		raw:         make([]byte, kp.payloadBytes),
		stageExecs:  make([]uint64, kp.maxStages),
		shadowSlots: -1,
	}
}

// publish adds the batch's counter deltas to the registry and zeroes them.
func (s *execScratch) publish(met *pisaMetrics) {
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

// kernel resolves a kernel id against the loaded plan.
func (sw *Switch) kernel(kernelID uint32) (*plan, *kernelPlan, error) {
	pl := sw.plan.Load()
	if pl == nil {
		return nil, nil, fmt.Errorf("pisa: no program loaded")
	}
	kp := pl.kernels[kernelID]
	if kp == nil {
		return nil, nil, fmt.Errorf("pisa: no kernel with id %d", kernelID)
	}
	return pl, kp, nil
}

// ExecWindow adapts the interpreter's window convention (name-keyed
// Meta) to the execution core: one BatchJob, the user values laid out in
// the kernel plan's wire order. It makes the two engines directly
// comparable and serves one-shot debugging; the data plane builds its
// jobs itself and calls ExecWindowBatch.
func (sw *Switch) ExecWindow(kernelID uint32, win *interp.Window) (interp.Decision, error) {
	pl, kp, err := sw.kernel(kernelID)
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
	sw.execBatch(pl, kp, job[:], uint32(win.Loc))
	return job[0].Dec, job[0].Err
}

// ExecWindowBatch is the device's execution core: it runs one kernel over
// a batch of windows (a batch of one is the degenerate case). The plan
// pointer is loaded once, one pooled scratch serves the whole batch, and
// the kernel's entire register/table lock set is acquired once around the
// loop (lockState) — the device's one locking discipline. Windows execute
// sequentially in batch order, so SALU read-modify-write atomicity and
// exactly-once suppression hold per window; batches for different kernels
// run concurrently when their lock sets are disjoint, and cannot deadlock
// otherwise because lockState acquires in global plan-index order.
//
// A batch-level problem (no program, unknown kernel) returns an error
// with no window executed. Per-window failures land in jobs[i].Err and
// do not stop the rest of the batch; a failed exactly-once window's
// shadow admission is rolled back so its retransmit can apply.
func (sw *Switch) ExecWindowBatch(kernelID uint32, jobs []BatchJob, loc uint32) error {
	if len(jobs) == 0 {
		return nil
	}
	pl, kp, err := sw.kernel(kernelID)
	if err != nil {
		return err
	}
	sw.execBatch(pl, kp, jobs, loc)
	return nil
}

func (sw *Switch) execBatch(pl *plan, kp *kernelPlan, jobs []BatchJob, loc uint32) {
	met := sw.met.Load()
	met.windows.Add(uint64(len(jobs)))
	if met.tenantWindows != nil {
		if c := met.tenantWindows[kp.tenant]; c != nil {
			c.Add(uint64(len(jobs)))
		}
	}
	// Deferred in reverse: unlock, publish the batch's counts, pool the scratch.
	s := kp.getScratch()
	defer kp.scratch.Put(s)
	defer s.publish(met)
	kp.lockState()
	defer kp.unlockState()
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
