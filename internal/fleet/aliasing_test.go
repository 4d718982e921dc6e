package fleet

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/platform"
)

// storeAuditor is the aliasing guard for the API server's read-only sharing
// contract. Get, List and watch events all hand out the stored object
// itself, so one reader mutating what it was given would silently corrupt
// the store and every other reader's view. A stored object is immutable, so
// its content is a function of (key, resourceVersion): the auditor
// fingerprints every stored object of both sites each time virtual time
// advances and fails if a fingerprint it has seen for a (key, version) ever
// differs. (It samples between instants, so a version mutated in the very
// instant it was stored is first seen already changed; writing such an
// object back is what APIServer.Update's stored-object panic catches.)
type storeAuditor struct {
	t     *testing.T
	seen  map[string]uint64 // "<site> <key>@<rv>" -> content fingerprint
	audit int
}

func (a *storeAuditor) check(site string, api *platform.APIServer) {
	api.Each(func(o platform.Object) {
		m := o.GetMeta()
		id := fmt.Sprintf("%s %s@%d", site, m.Key(), m.ResourceVersion)
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", o) // maps print in key order: deterministic
		sum := h.Sum64()
		if was, ok := a.seen[id]; ok && was != sum {
			a.t.Errorf("stored object %s changed in place: somebody mutated a shared object (now %+v)", id, o)
		}
		a.seen[id] = sum
		a.audit++
	})
}

// TestFleetNeverMutatesSharedAPIObjects drives every controller path that
// reads and rewrites API objects — provisioning, a join, a leave, a 1->2
// live reshard and the failover tenants — under the auditor.
func TestFleetNeverMutatesSharedAPIObjects(t *testing.T) {
	cfg := testConfig(16, 6)
	cfg.Joins = []JoinSpec{{After: 30 * time.Millisecond}}
	cfg.Leaves = []LeaveSpec{{Tenant: 9, After: 60 * time.Millisecond}}
	cfg.Reshards = []ReshardSpec{{Tenant: 6, After: 30 * time.Millisecond, Shards: 2}}
	f := New(cfg)
	a := &storeAuditor{t: t, seen: map[string]uint64{}}
	f.Sys.Env.OnAdvance(func(_, _ time.Duration) {
		a.check("main", f.Sys.Main.API)
		a.check("backup", f.Sys.Backup.API)
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	tot := f.Totals()
	if tot.Joined != 1 || tot.Left != 1 || tot.Resharded != 1 || tot.FailedOver == 0 || tot.Verified != tot.Tenants {
		t.Fatalf("the run did not exercise every path: %+v (reshard err: %v)", tot, f.Tenants[6].ReshardErr)
	}
	if a.audit == 0 || len(a.seen) < 10*tot.Tenants {
		t.Fatalf("auditor saw %d objects over %d versions", a.audit, len(a.seen))
	}
}
