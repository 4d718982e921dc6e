package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Per-phase allocation budget of the fleet workload's snapshot + verify phase
// (the paper's Fig. 6 step): one tenant's group snapshot of its backup
// volumes, the two views opened on it, analytics.Sales and consistency.Verify.
// A tenant of fleet_seq's shape — 512-byte blocks, 256-block volumes, 8 orders,
// so every row is in a never-checkpointed WAL — pays this once or twice per
// run, so a move in the fleet's MB/op that this pin does not show is in
// another phase. Before the views stopped sizing the log vector and the scan
// preload by their regions the phase cost 47 allocations and 20,136 bytes.
const (
	verifyAllocsBudget = 46
	verifyBytesBudget  = 11_592
)

func TestVerifySnapshotAllocBudget(t *testing.T) {
	f := New(Config{
		Tenants:         4,
		OrdersPerTenant: 8,
		StartBarrier:    true,
		System:          core.Config{Seed: 1, VolumeBlocks: 256, Storage: storage.Config{BlockSize: 512}},
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var tn *Tenant
	for _, c := range f.Tenants {
		if !c.Failover && !c.Leave {
			tn = c
			break
		}
	}
	const runs = 10
	tags := make([]string, runs+1)
	for i := range tags {
		tags[i] = fmt.Sprint("budget", i)
	}
	var allocs, bytes uint64
	f.Sys.Env.Process("budget", func(p *sim.Proc) {
		var before, after runtime.MemStats
		for i, tag := range tags { // the first call warms up
			runtime.ReadMemStats(&before)
			err := f.verifySnapshot(p, tn, tag)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Error(err)
				return
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			// Drop the group so the array's snapshot maps stay at one size.
			if err := f.Sys.Backup.Array.DeleteSnapshotGroup(tn.Namespace + "-" + tag); err != nil {
				t.Error(err)
				return
			}
		}
	})
	f.Sys.Env.Run(0)
	if !tn.Report.OrderingOK() || tn.Report.Collapsed() {
		t.Fatalf("%s: snapshot verdict %v", tn.Namespace, tn.Report)
	}
	perAllocs, perBytes := allocs/runs, bytes/runs
	t.Logf("snapshot + views + analytics + verify: %d allocations, %d bytes", perAllocs, perBytes)
	if perAllocs > verifyAllocsBudget || perBytes > verifyBytesBudget {
		t.Fatalf("snapshot + verify phase cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, verifyAllocsBudget, verifyBytesBudget)
	}
}

// Per-phase allocation budget of the fleet workload's order phase: one
// tenant's 8 orders — each a sales commit of one row, then a stock commit of
// two — on fresh sales and stock databases of fleet_seq's shape (512-byte
// blocks, 256-block volumes, the fleet's default shop), so every order's
// rows land on pages no commit wrote before. It pins the databases' commit
// path and the shop's own bookkeeping; the volumes journal nothing, so the
// replication cost of the same writes is not in it. Before commits carved
// right-sized pages from one arena per database, each first write to a page
// copied it into a whole block: the phase cost 71 allocations and 16,752 bytes.
// It costs 55 and 11,120 now; a -race build adds 48 bytes, which the bytes
// budget holds.
const (
	orderAllocsBudget = 55
	orderBytesBudget  = 11_168
)

func TestOrderPhaseAllocBudget(t *testing.T) {
	const orders, runs = 8, 10
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "main", storage.Config{BlockSize: 512})
	var allocs, bytes uint64
	env.Process("budget", func(p *sim.Proc) {
		open := func(id storage.VolumeID) *db.DB {
			_ = a.DeleteVolume(id) // the previous run's, absent on the first
			vol, err := a.CreateVolume(id, 256)
			if err != nil {
				t.Fatal(err)
			}
			d, err := db.Open(p, string(id), vol, db.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		var before, after runtime.MemStats
		for i := range runs + 1 { // the first run warms up
			shop := workload.NewShop(env, open("sales"), open("stock"), workload.Config{Seed: 1})
			runtime.ReadMemStats(&before)
			err := shop.Run(p, orders)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
		}
	})
	env.Run(0)
	perAllocs, perBytes := allocs/runs, bytes/runs
	t.Logf("%d orders on fresh databases: %d allocations, %d bytes", orders, perAllocs, perBytes)
	if perAllocs > orderAllocsBudget || perBytes > orderBytesBudget {
		t.Fatalf("order phase cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, orderAllocsBudget, orderBytesBudget)
	}
}

// Allocation budget of the fleet workload's shop construction: one tenant's
// workload.NewShop at the fleet's configuration (the default Zipf shop). A
// fleet tenant's 8 orders make far fewer than the 273 draws its source
// computes from the seed, so it never builds math/rand's 607-word register
// (a 5.4 KB allocation). Before the source was lazy, the phase cost 6
// allocations and 5,808 bytes. It costs 6 and 464 now, and as much under
// -race, so the bytes budget leaves 48 bytes of headroom.
const (
	shopAllocsBudget = 6
	shopBytesBudget  = 512
)

func TestNewShopAllocBudget(t *testing.T) {
	const runs = 100
	env := sim.NewEnv(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs { // one seed per tenant, as the fleet gives them
		workload.NewShop(env, nil, nil, workload.Config{Seed: 1 + int64(i)*7919})
	}
	runtime.ReadMemStats(&after)
	perAllocs, perBytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("NewShop: %d allocations, %d bytes", perAllocs, perBytes)
	if perAllocs > shopAllocsBudget || perBytes > shopBytesBudget {
		t.Fatalf("NewShop cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, shopAllocsBudget, shopBytesBudget)
	}
}

// Per-phase allocation budget of the fleet workload's provision phase: one
// tenant's ProvisionTenant — the Tenant object, the control plane's chain of
// reconciles (tenant controller, provisioner, namespace operator,
// replication plugin), the initial copy and the two databases opened — on a
// system of fleet_seq's shape that already serves a 4-tenant roster. Each
// measured tenant is decommissioned again, unmeasured, so every run starts
// from the same store and arrays. Before watch events were values, a cache
// miss returned no error, status writes copied only the struct and the
// reconcilers carried the names they derive, the phase cost 192 allocations
// and 15,840 bytes. It costs 146 and 14,304 now; a -race build adds 2
// allocations and 220 bytes, which the budgets hold.
const (
	provisionAllocsBudget = 148
	provisionBytesBudget  = 14_528
)

func TestProvisionAllocBudget(t *testing.T) {
	f := New(Config{
		Tenants: 4,
		System:  core.Config{Seed: 1, VolumeBlocks: 256, Storage: storage.Config{BlockSize: 512}},
	})
	spec := func(ns string) platform.TenantSpec {
		return platform.TenantSpec{Namespace: ns, PVCNames: []string{"sales", "stock"}, Backup: true, Profile: "oltp-external"}
	}
	const runs = 10
	var allocs, bytes uint64
	f.Sys.Env.Process("budget", func(p *sim.Proc) {
		defer f.Sys.Stop()
		for _, tn := range f.Tenants {
			if _, err := f.Sys.ProvisionTenant(p, spec(tn.Namespace)); err != nil {
				t.Error(err)
				return
			}
		}
		var before, after runtime.MemStats
		for i := range runs + 1 { // the first tenant warms up
			ns := fmt.Sprint("budget-", i)
			runtime.ReadMemStats(&before)
			_, err := f.Sys.ProvisionTenant(p, spec(ns))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Error(err)
				return
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			if err := f.Sys.DecommissionTenant(p, ns); err != nil {
				t.Error(err)
				return
			}
		}
	})
	f.Sys.Env.Run(0)
	perAllocs, perBytes := allocs/runs, bytes/runs
	t.Logf("provision one tenant: %d allocations, %d bytes", perAllocs, perBytes)
	if perAllocs > provisionAllocsBudget || perBytes > provisionBytesBudget {
		t.Fatalf("provision phase cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, provisionAllocsBudget, provisionBytesBudget)
	}
}
