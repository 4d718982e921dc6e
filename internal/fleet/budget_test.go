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
// Before each view kept its committed set in one sorted slice and its pages
// in one table, each made at the size its log gives it, the views' two maps
// and their first buckets made it 46 and 10,952. Before the replay walked the
// log in place, where it listed the log's records and sorted a claim per
// committed update, it cost 41 and 10,248. It costs 41 and 8,424 now, as much
// under -race; the bytes budget keeps 48 bytes of slack.
const (
	verifyAllocsBudget = 41
	verifyBytesBudget  = 8_472
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
// Before commits encoded their records straight into the WAL head block and
// the shop grew its ledgers once per run, it cost 55 and 11,120, and a -race
// build added 48 bytes. Before each database kept its committed set in a
// sorted slice and its pages in one table, a committed map and an owned map
// per database made it 26 and 10,128. It costs 24 and 9,776 now, as much under
// -race; the bytes budget keeps 48 bytes of slack.
const (
	orderAllocsBudget = 24
	orderBytesBudget  = 9_824
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

// Per-phase allocation budget of the fleet workload's failover open: db.Open
// of one tenant's sales and stock volumes after its 8 orders, on volumes of
// fleet_seq's shape (512-byte blocks, 256 blocks) — the replay of a log that
// was never checkpointed, then the recovery checkpoint. The orders run
// unmeasured on fresh volumes before every open, so each open recovers the
// same image. Before the replay made the committed set and the page table
// once at their exact sizes — where the owned, clean and committed maps grew
// as they filled — it cost 43 allocations and 13,160 bytes. Before the replay
// walked the log in place it cost 33 and 11,648. It costs 33 and 9,760 now, as
// much under -race; the bytes budget keeps 48 bytes of slack.
const (
	failoverAllocsBudget = 33
	failoverBytesBudget  = 9_808
)

func TestFailoverOpenAllocBudget(t *testing.T) {
	const orders, runs = 8, 10
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "main", storage.Config{BlockSize: 512})
	var allocs, bytes uint64
	env.Process("budget", func(p *sim.Proc) {
		fresh := func(id storage.VolumeID) *storage.Volume {
			_ = a.DeleteVolume(id) // the previous run's, absent on the first
			vol, err := a.CreateVolume(id, 256)
			if err != nil {
				t.Fatal(err)
			}
			return vol
		}
		open := func(id storage.VolumeID, vol *storage.Volume) *db.DB {
			d, err := db.Open(p, string(id), vol, db.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		var before, after runtime.MemStats
		for i := range runs + 1 { // the first run warms up
			sales, stock := fresh("sales"), fresh("stock")
			shop := workload.NewShop(env, open("sales", sales), open("stock", stock), workload.Config{Seed: 1})
			if err := shop.Run(p, orders); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			recSales, recStock := open("sales", sales), open("stock", stock)
			runtime.ReadMemStats(&after)
			if recSales.RecoveredTxns() != orders || recStock.RecoveredTxns() != orders {
				t.Fatalf("recovered %d sales and %d stock transactions, want %d each",
					recSales.RecoveredTxns(), recStock.RecoveredTxns(), orders)
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
		}
	})
	env.Run(0)
	perAllocs, perBytes := allocs/runs, bytes/runs
	t.Logf("failover open of %d orders' sales and stock: %d allocations, %d bytes", orders, perAllocs, perBytes)
	if perAllocs > failoverAllocsBudget || perBytes > failoverBytesBudget {
		t.Fatalf("failover open cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, failoverAllocsBudget, failoverBytesBudget)
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
// and 15,840 bytes. Before the databases it opens traded their committed and
// owned maps for a sorted slice and one page table, it cost 146 and 14,304.
// Before the API store kept one index, and a status write shared the labels
// and claim names it left unchanged with the version it replaced, it cost
// 140 and 14,118. Before the replication engine found each backup twin by
// its source volume's ID, where the plugin built an identity volume map per
// group, and re-armed its pulses through Event.Renew, it cost 133 and
// 13,888. It costs 131 and 13,552 now. A -race build adds up to 3
// allocations and 340 bytes of the detector's own, which the budgets hold
// with the file's 48 bytes of slack, and about one run in twenty 700 to 800
// bytes, which they do not (nor did any budget before them).
const (
	provisionAllocsBudget = 135
	provisionBytesBudget  = 13_940
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

// Per-phase allocation budget of the fleet workload's leave: one tenant's
// DecommissionTenant after its 8 orders and a catch-up — the drain, the spec
// deleted, the control plane's teardown reconciles and the wait for zero
// residue — on a system of fleet_seq's shape that already serves a 4-tenant
// roster. The leaver is provisioned and loaded unmeasured before each run, so
// every run tears down the same tenant; no database is opened or read in it.
// It costs 28 allocations and 1,104 bytes; a -race build adds up to 3
// allocations and 670 bytes of the detector's own, which the budgets hold.
// When the six budget tests run in one process, about one run in five reads
// 1,141 bytes: one of its ten leavers pays about 370 bytes more, before the
// API store kept one index as after it.
const (
	decommissionAllocsBudget = 32
	decommissionBytesBudget  = 1_920
)

func TestDecommissionAllocBudget(t *testing.T) {
	f := New(Config{
		Tenants: 4,
		System:  core.Config{Seed: 1, VolumeBlocks: 256, Storage: storage.Config{BlockSize: 512}},
	})
	spec := func(ns string) platform.TenantSpec {
		return platform.TenantSpec{Namespace: ns, PVCNames: []string{"sales", "stock"}, Backup: true, Profile: "oltp-external"}
	}
	const orders, runs = 8, 10
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
		for i := range runs + 1 { // the first leaver warms up
			ns := fmt.Sprint("budget-", i)
			bp, err := f.Sys.ProvisionTenant(p, spec(ns))
			if err != nil {
				t.Error(err)
				return
			}
			shop := workload.NewShop(f.Sys.Env, bp.Sales, bp.Stock, workload.Config{Seed: 1 + int64(i)*7919})
			if err := shop.Run(p, orders); err != nil {
				t.Error(err)
				return
			}
			f.Sys.CatchUp(p, ns)
			runtime.ReadMemStats(&before)
			err = f.Sys.DecommissionTenant(p, ns)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Error(err)
				return
			}
			if res := f.Sys.TenantResidue(ns); len(res) > 0 {
				t.Errorf("%s left residue: %v", ns, res)
				return
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
		}
	})
	f.Sys.Env.Run(0)
	perAllocs, perBytes := allocs/runs, bytes/runs
	t.Logf("decommission one tenant: %d allocations, %d bytes", perAllocs, perBytes)
	if perAllocs > decommissionAllocsBudget || perBytes > decommissionBytesBudget {
		t.Fatalf("decommission phase cost %d allocations and %d bytes, budget %d and %d",
			perAllocs, perBytes, decommissionAllocsBudget, decommissionBytesBudget)
	}
}
