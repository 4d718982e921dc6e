// The declarative tenant surface: ApplyTenant declares a tenant's entire
// desired state in one call (create the spec or replace it wholesale),
// UpdateTenantSpec (tenant.go) is its read-modify-write sibling for a caller
// that owns only some fields, and WaitTenantCondition blocks until the world
// reaches a named observable condition. Spec in, condition out: enabling
// backup is Spec.Backup + CondBackupReady, a reshard is Spec.JournalShards +
// CondResharded, a decommission is the spec's deletion + CondGone.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/operator"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ApplyTenant declares the tenant's desired state: the spec is created if
// absent, otherwise replaced wholesale (version conflicts with the
// controller's status writes retry; an identical spec writes nothing). The
// controller chain then converges the world — pair with WaitTenantCondition
// to block on the outcome. Partial mutations of an existing spec are what
// UpdateTenantSpec is for.
func (sys *System) ApplyTenant(p *sim.Proc, spec platform.TenantSpec) error {
	if err := sys.validateSpec(spec); err != nil {
		return err
	}
	ns := spec.Namespace
	for {
		obj, err := sys.Main.API.Get(p, tenantKey(ns))
		if errors.Is(err, platform.ErrNotFound) {
			err = sys.Main.API.Create(p, &platform.Tenant{
				Meta:   platform.Meta{Kind: platform.KindTenant, Name: ns},
				Spec:   spec,
				Status: platform.TenantStatus{Phase: platform.TenantPending, Message: "spec accepted"},
			})
			if errors.Is(err, platform.ErrExists) {
				continue // lost a create race: retry as an update
			}
			return err
		}
		if err != nil {
			return err
		}
		if reflect.DeepEqual(obj.(*platform.Tenant).Spec, spec) {
			return nil
		}
		tn := obj.DeepCopy().(*platform.Tenant)
		tn.Spec = spec
		err = sys.Main.API.Update(p, tn)
		if errors.Is(err, platform.ErrConflict) {
			continue
		}
		return err
	}
}

// validateSpec is the declaration-time check every door a spec comes in by
// shares (ApplyTenant, ProvisionTenant). It makes no API call.
func (sys *System) validateSpec(spec platform.TenantSpec) error {
	if spec.Namespace == "" {
		return fmt.Errorf("core: tenant spec needs a namespace")
	}
	// A policy reference must resolve against the registered classes at
	// declaration time: a typo'd SLO class would otherwise silently fall
	// back to unmanaged best-effort, which no operator means to declare.
	if spec.SLOClass != "" {
		if _, ok := sys.sloClasses[spec.SLOClass]; !ok {
			return fmt.Errorf("core: tenant %s references unregistered SLO class %q", spec.Namespace, spec.SLOClass)
		}
	}
	// A typo'd profile would otherwise run as the business process.
	switch spec.Profile {
	case "", "oltp-external", "data-only":
		return nil
	}
	return fmt.Errorf("core: tenant %s declares unknown profile %q", spec.Namespace, spec.Profile)
}

// condKind enumerates the observable tenant conditions.
type condKind int

const (
	condReady condKind = iota
	condBackupReady
	condResharded
	condGone
)

// TenantCondition names an observable condition of a tenant for
// WaitTenantCondition. Construct one with CondReady, CondBackupReady,
// CondResharded, or CondGone.
type TenantCondition struct {
	kind   condKind
	shards int
}

// CondReady is satisfied when the tenant's status reaches Ready (namespace,
// bound claims, and — with Spec.Backup — running replication including the
// initial copy). A Failed status ends the wait with its message.
func CondReady() TenantCondition { return TenantCondition{kind: condReady} }

// CondBackupReady is satisfied when the tenant's ReplicationGroup reports
// Ready. Prefer it over CondReady after flipping Spec.Backup on an
// already-Ready tenant: the tenant phase may hold Ready across the
// reconcile, but the group's phase tracks the new replication.
func CondBackupReady() TenantCondition { return TenantCondition{kind: condBackupReady} }

// CondResharded is satisfied when the tenant's replication engine drains
// exactly `shards` lanes with no open migration window. Structurally
// impossible states — backup disabled, a failed-over or stopped engine, or
// the tenant deleted mid-wait — end the wait immediately with
// ErrNotReshardable.
func CondResharded(shards int) TenantCondition {
	return TenantCondition{kind: condResharded, shards: shards}
}

// CondGone is satisfied when the tenant is fully decommissioned: spec
// deleted, teardown converged, and zero residue on either array.
func CondGone() TenantCondition { return TenantCondition{kind: condGone} }

func (c TenantCondition) String() string {
	switch c.kind {
	case condReady:
		return "Ready"
	case condBackupReady:
		return "BackupReady"
	case condResharded:
		return fmt.Sprintf("Resharded(%d)", c.shards)
	case condGone:
		return "Gone"
	}
	return "?"
}

// WaitTenantCondition blocks until the namespace reaches the condition, the
// condition becomes permanently unreachable (a typed error, immediately),
// or the timeout expires (ErrTimeout). Status-shaped conditions are
// watch-driven — one wakeup per transition; engine-shaped conditions
// (CondResharded, CondGone) poll with backoff because the states they
// observe live outside the API server.
func (sys *System) WaitTenantCondition(p *sim.Proc, namespace string, cond TenantCondition, timeout time.Duration) error {
	switch cond.kind {
	case condReady, condBackupReady:
		return sys.waitPhase(p, namespace, cond.kind == condBackupReady, timeout)
	case condResharded:
		// Every poll re-screens for the permanent can't-reshard states, so a
		// wait racing a disaster (or a decommission — the tenant spec deleted
		// under the wait) fails fast with ErrNotReshardable instead of
		// dressing a permanent condition up as a timeout.
		return poll(p, timeout, func() (bool, error) {
			if err := sys.reshardable(p, namespace); errors.Is(err, platform.ErrNotFound) {
				return false, fmt.Errorf("%w: tenant %s deleted mid-reshard", ErrNotReshardable, namespace)
			} else if err != nil {
				return false, err
			}
			gs := sys.Groups(namespace)
			return len(gs) == 1 && gs[0].Lanes() == cond.shards && !gs[0].Resharding(), nil
		}, func() error {
			return fmt.Errorf("%w: tenant %s not resharded to %d lanes", ErrTimeout, namespace, cond.shards)
		})
	case condGone:
		// Gone is teardown converged to zero residue.
		return poll(p, timeout, func() (bool, error) {
			_, err := sys.Main.API.Get(p, tenantKey(namespace))
			gone := errors.Is(err, platform.ErrNotFound)
			if err != nil && !gone {
				return false, err
			}
			_, managed := sys.managed(namespace)
			return gone && !managed && len(sys.TenantResidue(namespace)) == 0, nil
		}, func() error {
			return fmt.Errorf("%w: tenant %s not reclaimed: %s", ErrTimeout, namespace,
				strings.Join(sys.TenantResidue(namespace), "; "))
		})
	}
	return fmt.Errorf("core: unknown tenant condition %v", cond)
}

// waitPhase is the watched check of the status-shaped conditions: the
// tenant's own phase (CondReady) or its ReplicationGroup's (CondBackupReady)
// ends the wait at Ready, or at Failed with the status message.
func (sys *System) waitPhase(p *sim.Proc, namespace string, backup bool, timeout time.Duration) error {
	key := tenantKey(namespace)
	if backup {
		key = platform.ObjectKey{Kind: platform.KindReplicationGroup, Name: operator.GroupNameFor(namespace)}
	}
	err := sys.waitObject(p, key, timeout, func(obj platform.Object) (bool, error) {
		switch o := obj.(type) {
		case *platform.Tenant:
			if o.Status.Phase == platform.TenantFailed {
				return true, fmt.Errorf("core: tenant %s failed: %s", namespace, o.Status.Message)
			}
			return o.Status.Phase == platform.TenantReady, nil
		case *platform.ReplicationGroup:
			if o.Status.Phase == platform.GroupFailed {
				return true, fmt.Errorf("core: replication group failed: %s", o.Status.Message)
			}
			return o.Status.Phase == platform.GroupReady, nil
		}
		return false, nil
	})
	switch {
	case !errors.Is(err, ErrTimeout):
		return err
	case backup:
		return fmt.Errorf("%w: replication group for %s not ready", ErrTimeout, namespace)
	}
	return fmt.Errorf("%w: tenant %s not ready", ErrTimeout, namespace)
}

// poll is the loop of the engine-shaped conditions: check until it reports
// done or an error, sleeping pollInterval, doubling up to pollCap, between
// checks; past the deadline, the wait ends with timedOut's error.
func poll(p *sim.Proc, timeout time.Duration, check func() (bool, error), timedOut func() error) error {
	deadline := p.Now() + timeout
	for wait := pollInterval; ; wait = min(2*wait, pollCap) {
		if done, err := check(); done || err != nil {
			return err
		}
		if p.Now() >= deadline {
			return timedOut()
		}
		p.Sleep(wait)
	}
}
