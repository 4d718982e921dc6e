package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestApplyTenantDeclarativeLifecycle drives a tenant through the
// declarative surface alone: one ApplyTenant declares the whole desired
// state, CondReady observes convergence, a re-apply of the identical spec
// writes nothing and costs one charged read, and a spec change (more journal lanes) converges through
// the same two calls via CondResharded.
func TestApplyTenantDeclarativeLifecycle(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		spec := tenantSpec("shop")
		spec.JournalShards = 2
		if err := sys.ApplyTenant(p, spec); err != nil {
			t.Errorf("apply: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", CondReady(), time.Minute); err != nil {
			t.Errorf("ready: %v", err)
			return
		}
		obj, err := sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		before := obj.GetMeta().ResourceVersion
		calls, start := sys.Main.API.Calls(), p.Now()
		if err := sys.ApplyTenant(p, spec); err != nil {
			t.Errorf("re-apply: %v", err)
			return
		}
		// A client's read is a round trip, not the informer cache: the
		// identical re-apply is its one Get.
		if n, took := sys.Main.API.Calls()-calls, p.Now()-start; n != 1 || took != 500*time.Microsecond {
			t.Errorf("identical re-apply cost %d calls over %v, want 1 over 500µs", n, took)
		}
		obj, err = sys.Main.API.Get(p, tenantKey("shop"))
		if err != nil {
			t.Error(err)
			return
		}
		if got := obj.GetMeta().ResourceVersion; got != before {
			t.Errorf("identical re-apply bumped version %d -> %d", before, got)
		}

		spec.JournalShards = 4
		if err := sys.ApplyTenant(p, spec); err != nil {
			t.Errorf("apply reshard: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", CondResharded(4), time.Minute); err != nil {
			t.Errorf("resharded: %v", err)
			return
		}
		if got := sys.Groups("shop")[0].Lanes(); got != 4 {
			t.Errorf("lanes after declarative reshard = %d, want 4", got)
		}
	})
}

// TestWaitReshardedRacingDecommissionFailsFast is the satellite regression:
// a CondResharded wait whose tenant is decommissioned underneath it must
// return the typed ErrNotReshardable promptly — the condition has become
// permanently unreachable, and dressing that up as ErrTimeout would stall
// the caller (the autopilot among them) for the full deadline.
func TestWaitReshardedRacingDecommissionFailsFast(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, shardedSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		sys.Env.Process("decommission", func(p2 *sim.Proc) {
			p2.Sleep(300 * time.Millisecond)
			if err := sys.DecommissionTenant(p2, "shop"); err != nil {
				t.Errorf("decommission: %v", err)
			}
		})
		// Wait for a lane count nothing is converging toward, so the wait is
		// still in flight when the decommission lands.
		start := p.Now()
		err := sys.WaitTenantCondition(p, "shop", CondResharded(4), time.Hour)
		if !errors.Is(err, ErrNotReshardable) {
			t.Errorf("wait error = %v, want ErrNotReshardable", err)
		}
		if errors.Is(err, ErrTimeout) {
			t.Errorf("deletion surfaced as a timeout: %v", err)
		}
		if elapsed := p.Now() - start; elapsed > 10*time.Second {
			t.Errorf("refusal took %v — burned toward the deadline instead of failing fast", elapsed)
		}
	})
}

// TestApplyTenantUnknownSLOClassFails: a spec naming an unregistered SLO
// class or an unknown profile must be refused at declaration time through
// either door a spec comes in by — ApplyTenant or ProvisionTenant — before
// any API call, not discovered downstream as a tenant silently provisioned
// unmanaged, or with the wrong workload.
func TestApplyTenantUnknownSLOClassFails(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*platform.TenantSpec)
	}{
		{"unregistered SLO class", func(s *platform.TenantSpec) { s.SLOClass = "platinum" }},
		{"unknown profile", func(s *platform.TenantSpec) { s.Profile = "data_only" }},
	} {
		runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
			spec := tenantSpec("shop")
			c.edit(&spec)
			calls := sys.Main.API.Calls()
			if err := sys.ApplyTenant(p, spec); err == nil {
				t.Errorf("%s: apply succeeded", c.name)
			}
			if _, err := sys.ProvisionTenant(p, spec); err == nil {
				t.Errorf("%s: provision succeeded", c.name)
			}
			if got := sys.Main.API.Calls() - calls; got != 0 {
				t.Errorf("%s: the refusals made %d API calls", c.name, got)
			}
			if _, err := sys.Main.API.Get(p, tenantKey("shop")); !errors.Is(err, platform.ErrNotFound) {
				t.Errorf("%s: a refused spec left a Tenant object behind (get: %v)", c.name, err)
			}
		})
	}
}

// TestCondGoneObservesDecommission: the Gone condition is satisfied exactly
// when teardown has converged with zero residue.
func TestCondGoneObservesDecommission(t *testing.T) {
	runSystem(t, Config{}, func(p *sim.Proc, sys *System) {
		if _, err := sys.ProvisionTenant(p, tenantSpec("shop")); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if err := sys.DecommissionTenant(p, "shop"); err != nil {
			t.Errorf("decommission: %v", err)
			return
		}
		if err := sys.WaitTenantCondition(p, "shop", CondGone(), time.Minute); err != nil {
			t.Errorf("gone: %v", err)
		}
	})
}
