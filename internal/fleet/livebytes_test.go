package fleet

import (
	"runtime"
	"runtime/metrics"
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
// Over 5 runs, alone and after the package's other tests, and under -race,
// that read 16,577–16,586 bytes and 98 objects; the bytes budget is the
// highest reading plus the file's 48 bytes of slack. Of those bytes,
// 9,581–9,589 were scannable (/gc/scan/heap:bytes) over the same runs;
// that budget is the highest reading plus the same slack. A change that
// lowers either ratchets its pin.
const (
	liveTenants          = 256
	liveBytesPerTenant   = 16_634
	scanBytesPerTenant   = 9_637
	liveObjectsPerTenant = 98
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
// reads the heap and the bytes of it the collector must scan, as the last
// cycle left them (runtime/metrics /gc/scan/heap:bytes; a pointer-free object,
// such as a []byte, costs the mark phase nothing).
func settledHeap() (m runtime.MemStats, scan uint64) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return m, s[0].Value.Uint64()
}

func TestParkedTenantLiveBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runParked(t) // grows the runtime's caches (dead coroutines' descriptors) once
	before, scanBefore := settledHeap()
	f := runParked(t)
	after, scanAfter := settledHeap()
	runtime.KeepAlive(f)
	bytes := int64(after.HeapAlloc-before.HeapAlloc) / liveTenants
	objects := int64(after.HeapObjects-before.HeapObjects) / liveTenants
	scan := (int64(scanAfter) - int64(scanBefore)) / liveTenants
	t.Logf("a parked tenant holds %d bytes, %d of them scannable, in %d objects (%d objects in all)",
		bytes, scan, objects, after.HeapObjects-before.HeapObjects)
	if bytes > liveBytesPerTenant || scan > scanBytesPerTenant || objects > liveObjectsPerTenant {
		t.Fatalf("a parked tenant holds %d bytes, %d scannable, in %d objects, budget %d, %d and %d",
			bytes, scan, objects, liveBytesPerTenant, scanBytesPerTenant, liveObjectsPerTenant)
	}
}
