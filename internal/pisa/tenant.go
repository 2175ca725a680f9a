package pisa

import (
	"fmt"
	"sort"
	"strings"
)

// Multi-tenant program merging — the ClickINC-style "INC as a service"
// substrate. Several independent NCL programs share one physical device
// by compiling into ONE merged Program whose register/table/kernel name
// spaces are made disjoint with a per-tenant prefix and whose kernel ids
// carry the tenant slot in their high bits. The merged program compiles
// through the ordinary Load path, so the result is a single plan whose
// dense register/table arrays are naturally partitioned into per-tenant
// slices, swapped exactly like a single-tenant plan.
//
// Admission control falls out of Validate: per-stage register SRAM sums
// across every tenant's registers pinned to that stage, so validating
// the merged program against the device target IS the budget check.

// TenantKernelShift positions the tenant slot in a kernel id: the low 20
// bits are the tenant's own kernel id, the high bits the slot. Slot 0 is
// reserved for untenanted (single-tenant) programs, which keeps every
// existing kernel id, shadow key, and counter bit-identical.
const TenantKernelShift = 20

// MaxTenantSlot bounds the slot space (12 bits above the shift). Slots
// are never reused within a device's lifetime so stale shadow entries
// from an evicted tenant can never suppress a successor's windows.
const MaxTenantSlot = 1<<(32-TenantKernelShift) - 1

// TenantKernelID tags a tenant's kernel id with its slot.
func TenantKernelID(slot int, id uint32) uint32 {
	return uint32(slot)<<TenantKernelShift | id
}

// TenantSlotOfKernel recovers the tenant slot from a tagged kernel id
// (0 for untenanted kernels).
func TenantSlotOfKernel(id uint32) uint32 { return id >> TenantKernelShift }

// TenantPrefix is the name prefix isolating a tenant's registers,
// tables, and kernels inside a merged program.
func TenantPrefix(id string) string { return id + "/" }

// TenantProgram is one tenant's program for a single location, plus the
// identity the merge needs.
type TenantProgram struct {
	ID       string // tenant id; must not contain "/"
	Slot     int    // 1..MaxTenantSlot, stable for the tenant's lifetime
	Priority int    // admission priority (higher wins eviction fights)
	Program  *Program
}

func (tp *TenantProgram) check() error {
	if tp.ID == "" {
		return fmt.Errorf("pisa: tenant with empty id")
	}
	if strings.Contains(tp.ID, "/") {
		return fmt.Errorf("pisa: tenant id %q contains '/'", tp.ID)
	}
	if tp.Slot < 1 || tp.Slot > MaxTenantSlot {
		return fmt.Errorf("pisa: tenant %s slot %d outside [1, %d]", tp.ID, tp.Slot, MaxTenantSlot)
	}
	if tp.Program == nil {
		return fmt.Errorf("pisa: tenant %s has no program", tp.ID)
	}
	for _, k := range tp.Program.Kernels {
		if k.ID >= 1<<TenantKernelShift {
			return fmt.Errorf("pisa: tenant %s kernel %s id %d exceeds the %d-bit tenant-local id space",
				tp.ID, k.Name, k.ID, TenantKernelShift)
		}
	}
	return nil
}

// TagProgram returns one tenant's slice of a merged program: every
// register, table, and kernel renamed under the tenant prefix, kernel
// ids tagged with the slot, and each kernel bound to the tenant's own
// label and user-field spaces. Loading the concatenation of tagged
// programs (MergePrograms) is the multi-tenant device image; switch
// nodes sharing that device install a single tenant's tagged program as
// their wire-binding view.
func TagProgram(tp *TenantProgram) (*Program, error) {
	if err := tp.check(); err != nil {
		return nil, err
	}
	p := tp.Program
	prefix := TenantPrefix(tp.ID)
	out := &Program{
		Name:       prefix + p.Name,
		Loc:        p.Loc,
		LocID:      p.LocID,
		UserFields: append([]string(nil), userFieldsOf(p)...),
		Tenants:    []TenantInfo{{ID: tp.ID, Slot: tp.Slot, Priority: tp.Priority}},
	}
	for _, r := range p.Registers {
		nr := r
		nr.Name = prefix + r.Name
		nr.Init = append([]uint64(nil), r.Init...)
		out.Registers = append(out.Registers, nr)
	}
	for _, t := range p.Tables {
		out.Tables = append(out.Tables, prefix+t)
	}
	for _, k := range p.Kernels {
		// The overrides must be non-nil even when empty: nil means "use
		// the program-level spaces", which on a merged program are the
		// meaningless union.
		ufs := userFieldsOfKernel(p, k)
		nk := &Kernel{
			Name:       prefix + k.Name,
			ID:         TenantKernelID(tp.Slot, k.ID),
			WindowLen:  k.WindowLen,
			Fields:     k.Fields,
			Params:     k.Params,
			WinMeta:    k.WinMeta,
			Labels:     labelsOf(p, k),
			UserFields: append(make([]string, 0, len(ufs)), ufs...),
		}
		for _, pass := range k.Passes {
			var nPass []*Stage
			for _, st := range pass {
				ns := &Stage{VLIW: st.VLIW}
				for _, tb := range st.Tables {
					nt := *tb
					nt.Name = prefix + tb.Name
					ns.Tables = append(ns.Tables, &nt)
				}
				for _, sa := range st.SALUs {
					nsa := *sa
					nsa.Global = prefix + sa.Global
					ns.SALUs = append(ns.SALUs, &nsa)
				}
				nPass = append(nPass, ns)
			}
			nk.Passes = append(nk.Passes, nPass)
		}
		out.Kernels = append(out.Kernels, nk)
	}
	return out, nil
}

// labelsOf resolves the label space a tenant kernel should carry: its
// own override if the source program already set one, else the source
// program's labels.
func labelsOf(p *Program, k *Kernel) []string {
	if k.Labels != nil {
		return k.Labels
	}
	// Always non-nil so the merged plan never falls back to the merged
	// program's (empty) label space.
	if p.Labels == nil {
		return []string{}
	}
	return p.Labels
}

// userFieldsOf is the program's wire order, falling back to the WinMeta
// union exactly like plan compilation does.
func userFieldsOf(p *Program) []string {
	if len(p.UserFields) > 0 {
		return p.UserFields
	}
	return userFieldUnion(p)
}

func userFieldsOfKernel(p *Program, k *Kernel) []string {
	if k.UserFields != nil {
		return k.UserFields
	}
	return userFieldsOf(p)
}

// MergePrograms concatenates the tagged programs of every tenant into
// one loadable device image for a location. Tenants are merged in slot
// order, so the merged register/table layout (and therefore the compiled
// plan's dense state arrays) is deterministic for a given tenant set.
// The caller validates the result against the device target — that
// Validate call is the admission check.
func MergePrograms(name string, tenants []*TenantProgram) (*Program, error) {
	sorted := append([]*TenantProgram(nil), tenants...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Slot < sorted[b].Slot })
	merged := &Program{Name: name}
	seenID := map[string]bool{}
	seenSlot := map[int]bool{}
	userSeen := map[string]bool{}
	for _, tp := range sorted {
		if seenID[tp.ID] {
			return nil, fmt.Errorf("pisa: duplicate tenant id %q", tp.ID)
		}
		if seenSlot[tp.Slot] {
			return nil, fmt.Errorf("pisa: tenant %s reuses slot %d", tp.ID, tp.Slot)
		}
		tagged, err := TagProgram(tp)
		if err != nil {
			return nil, err
		}
		seenID[tp.ID] = true
		seenSlot[tp.Slot] = true
		merged.Registers = append(merged.Registers, tagged.Registers...)
		merged.Tables = append(merged.Tables, tagged.Tables...)
		merged.Kernels = append(merged.Kernels, tagged.Kernels...)
		merged.Tenants = append(merged.Tenants, tagged.Tenants...)
		for _, uf := range tagged.UserFields {
			if !userSeen[uf] {
				userSeen[uf] = true
				merged.UserFields = append(merged.UserFields, uf)
			}
		}
		if merged.Loc == "" {
			merged.Loc = tagged.Loc
			merged.LocID = tagged.LocID
		}
	}
	sort.Strings(merged.UserFields)
	return merged, nil
}
