package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDatabaseImportsNoReplicationStack keeps the database below the
// replication stack: db declares the volume interface it writes through
// (db.BlockWriter), so the packages that implement replicated volumes, and
// those beneath them, stay out of its dependencies.
func TestDatabaseImportsNoReplicationStack(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cmd := exec.Command("go", "list", "-deps", "./internal/db")
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	forbidden := map[string]bool{}
	for _, name := range []string{"replication", "fabric", "netlink", "telemetry", "metrics"} {
		forbidden["repro/internal/"+name] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		if forbidden[dep] {
			t.Errorf("internal/db depends on %s", dep)
		}
	}
}
