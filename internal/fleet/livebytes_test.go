package fleet

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// Live heap a fleet tenant keeps once its run has quiesced: every order
// placed, every snapshot verified, the system stopped and no process left.
// It is what a parked 10k-tenant fleet would hold before any traffic, and the
// cost is linear in tenants, so a 256-tenant fleet of fleet_seq's shape
// measures it. A first fleet in a process reads about 20,500 bytes and 113
// objects per tenant, of which about 870 bytes do not recur in a second
// fleet (one-time caches, such as the runtime's pool of finished goroutines'
// descriptors), so the test runs one fleet first and measures the second.
// Both run on one P: each P keeps its own pool of dead goroutines'
// descriptors, and a fleet measured on a P whose pool the first fleet left
// shorter allocates new ones (up to about 140 bytes a tenant more on 2 Ps).
// Over 40 runs, alone and after the package's other tests, and under -race,
// that read 19,541–19,557 bytes and 111 objects; the bytes budget is the
// highest reading plus the file's 48 bytes of slack. A change that lowers it
// ratchets the pin.
const (
	liveTenants          = 256
	liveBytesPerTenant   = 19_605
	liveObjectsPerTenant = 111
)

// runParked runs a fleet of liveTenants tenants to quiescence.
func runParked(t *testing.T) *Fleet {
	f := New(Config{
		Tenants:         liveTenants,
		OrdersPerTenant: 8,
		StartBarrier:    true,
		System:          core.Config{Seed: 1, VolumeBlocks: 256, Storage: storage.Config{BlockSize: 512}},
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if n := f.Sys.Env.Procs(); n != 0 {
		t.Fatalf("%d processes still live after the run", n)
	}
	return f
}

// settledHeap collects twice, so a sync.Pool's victim cache is gone too, and
// reads the heap.
func settledHeap() (m runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m
}

func TestParkedTenantLiveBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runParked(t) // grows the runtime's caches (dead coroutines' descriptors) once
	before := settledHeap()
	f := runParked(t)
	after := settledHeap()
	runtime.KeepAlive(f)
	bytes := int64(after.HeapAlloc-before.HeapAlloc) / liveTenants
	objects := int64(after.HeapObjects-before.HeapObjects) / liveTenants
	t.Logf("a parked tenant holds %d bytes in %d objects (%d objects in all)", bytes, objects, after.HeapObjects-before.HeapObjects)
	if bytes > liveBytesPerTenant || objects > liveObjectsPerTenant {
		t.Fatalf("a parked tenant holds %d bytes in %d objects, budget %d and %d",
			bytes, objects, liveBytesPerTenant, liveObjectsPerTenant)
	}
}
