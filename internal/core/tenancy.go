package core

import (
	"fmt"
	"sync"

	"ncl/internal/controller"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
)

// Tenancy runs several independently-built NCL applications on one set
// of shared switch devices — INC as a service. Each AddTenant goes
// through controller admission (the merged footprint must validate
// against the per-stage budgets, with priority eviction when they are
// exhausted); an admitted tenant's registers, tables, and kernels are
// rewritten into disjoint slices of a single merged program that is
// atomically swapped onto each shared device, preserving the surviving
// tenants' register/table/shadow state.
//
// Each tenant keeps its own fabric, hosts, and controller — what is
// shared is the switch data plane. A SwitchNode in a tenant's fabric
// whose label matches a shared device wraps that device instead of
// owning one.
type Tenancy struct {
	target pisa.TargetConfig
	faults netsim.Faults

	mu      sync.Mutex
	adm     *controller.Admission
	devices map[string]*pisa.Switch
	tenants map[string]*Tenant
	events  []controller.TenantEvent
	onEvent func(controller.TenantEvent)

	// Obs aggregates the shared-device metrics (pisa.<label>.* including
	// the per-tenant pisa.<label>.tenant.<id>.windows counters) and the
	// admission counters. Per-tenant host metrics live in each tenant's
	// Deployment.Obs under tenant.<id>.host.*.
	Obs *obs.Registry
}

// Tenant is one admitted application: its slot (the kernel-id tag), its
// private deployment, and the artifact it came from.
type Tenant struct {
	ID         string
	Slot       int
	Priority   int
	Artifact   *Artifact
	Deployment *Deployment
}

// NewTenancy creates an empty multi-tenant service whose shared devices
// all have the given resource budget. faults applies to every tenant's
// fabric.
func NewTenancy(target pisa.TargetConfig, faults netsim.Faults) *Tenancy {
	if target.Stages == 0 {
		target = pisa.DefaultTarget()
	}
	reg := obs.NewRegistry()
	t := &Tenancy{
		target:  target,
		faults:  faults,
		devices: map[string]*pisa.Switch{},
		tenants: map[string]*Tenant{},
		Obs:     reg,
	}
	t.adm = controller.NewAdmission(func(string) pisa.TargetConfig { return target }, reg)
	t.adm.OnEvent(func(ev controller.TenantEvent) {
		t.events = append(t.events, ev)
		if t.onEvent != nil {
			t.onEvent(ev)
		}
	})
	return t
}

// OnEvent installs a callback for admission events (admit, reject,
// evict, remove). Events are also recorded; see Events.
func (t *Tenancy) OnEvent(fn func(controller.TenantEvent)) {
	t.mu.Lock()
	t.onEvent = fn
	t.mu.Unlock()
}

// Events returns a copy of every admission event so far, in order.
func (t *Tenancy) Events() []controller.TenantEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]controller.TenantEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Tenant returns an admitted tenant by id.
func (t *Tenancy) Tenant(id string) (*Tenant, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tn, ok := t.tenants[id]
	if !ok {
		return nil, fmt.Errorf("core: no tenant %q", id)
	}
	return tn, nil
}

// Device returns the shared switch device for a location label (for
// inspection; register names carry tenant prefixes, see
// pisa.TenantPrefix).
func (t *Tenancy) Device(label string) (*pisa.Switch, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dev, ok := t.devices[label]
	if !ok {
		return nil, fmt.Errorf("core: no shared device %q", label)
	}
	return dev, nil
}

// reloadMerged swaps the new merged images onto the shared devices,
// carrying surviving tenants' state over (LoadPreserving matches
// registers and tables by tenant-prefixed name, so a removed or evicted
// tenant's slices are reclaimed by omission while everyone else's
// values — and the exactly-once shadow — survive). A location's device is
// created here, its metrics homed in the tenancy registry before any
// program loads so per-tenant window counters land there.
func (t *Tenancy) reloadMerged(merged map[string]*pisa.Program) error {
	for label, prog := range merged {
		dev, ok := t.devices[label]
		if !ok {
			dev = pisa.NewSwitch(t.target)
			dev.SetObs(t.Obs, label)
			t.devices[label] = dev
		}
		if err := dev.LoadPreserving(prog); err != nil {
			return fmt.Errorf("core: reload %s: %w", label, err)
		}
	}
	return nil
}

// AddTenant admits an application into the shared service. On success
// the tenant's programs run as disjoint slices of the merged device
// images and its hosts run in a private deployment; on budget
// exhaustion, resident tenants with strictly lower priority are evicted
// (their deployments stopped, their slices reclaimed, an evict event
// delivered) to make room — or the newcomer is rejected with
// controller.ErrRejected and nothing changes.
func (t *Tenancy) AddTenant(a *Artifact, id string, priority int) (*Tenant, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.adm.Admit(controller.TenantSpec{
		ID:       id,
		Priority: priority,
		Programs: a.Programs,
	})
	if err != nil {
		return nil, err
	}
	// Evictions committed: stop those tenants' deployments before the
	// reload reclaims their device slices.
	for _, eid := range res.Evicted {
		if ev, ok := t.tenants[eid]; ok {
			ev.Deployment.Stop()
			delete(t.tenants, eid)
		}
	}
	if err := t.reloadMerged(res.Merged); err != nil {
		// Loading a validated merge only fails if a device diverged from
		// the admission budget; surface it rather than half-commit.
		return nil, err
	}
	dep, err := t.deployTenant(a, id, res)
	if err != nil {
		// Roll the registry back and reclaim the device slices.
		if rm, rerr := t.adm.Remove(id); rerr == nil {
			_ = t.reloadMerged(rm.Merged)
		}
		return nil, err
	}
	tn := &Tenant{ID: id, Slot: res.Slot, Priority: priority, Artifact: a, Deployment: dep}
	t.tenants[id] = tn
	return tn, nil
}

// RemoveTenant retires a tenant: its deployment stops, its admission
// slot retires, and the shared devices reload without its slices —
// reclaiming its per-stage SRAM for future admissions.
func (t *Tenancy) RemoveTenant(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tn, ok := t.tenants[id]
	if !ok {
		return fmt.Errorf("core: no tenant %q", id)
	}
	res, err := t.adm.Remove(id)
	if err != nil {
		return err
	}
	tn.Deployment.Stop()
	delete(t.tenants, id)
	return t.reloadMerged(res.Merged)
}

// Stop tears the whole service down: every tenant deployment, in
// admission order.
func (t *Tenancy) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.adm.Tenants() {
		if tn, ok := t.tenants[id]; ok {
			tn.Deployment.Stop()
			delete(t.tenants, id)
		}
	}
}

// deployTenant brings up one tenant's private fabric/hosts/controller
// against the shared devices. Must run with t.mu held.
func (t *Tenancy) deployTenant(a *Artifact, id string, res *controller.AdmitResult) (*Deployment, error) {
	// Hosts send and match on tagged kernel ids, and report metrics under
	// the tenant namespace. Copy the map — AppConfig aliases the artifact's.
	cfg := a.AppConfig()
	ids := make(map[string]uint32, len(cfg.KernelIDs))
	for name, kid := range cfg.KernelIDs {
		ids[name] = pisa.TenantKernelID(res.Slot, kid)
	}
	cfg.KernelIDs = ids
	cfg.MetricsPrefix = "tenant." + id + "."
	// The name prefix makes the tenant's control-plane writes
	// (CtrlWrite("nworkers", ...) etc.) resolve its prefixed slices.
	ctrl := controller.New(a.Net)
	ctrl.SetNamePrefix(pisa.TenantPrefix(id))
	// Every switch node wraps its shared device (reloadMerged created one
	// per location the tenant has a program for, and swapped the merged
	// image in), so installing the tenant's tagged views records wire specs
	// and routes and loads nothing. Node metrics stay per-tenant, device
	// metrics stay homed in the tenancy registry.
	return a.deploy(a.fabric(a.Net, t.faults),
		wiring{ctrl: ctrl, cfg: cfg, programs: res.Views, devices: t.devices})
}
