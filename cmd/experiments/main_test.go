package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// -cpuprofile FILE writes a runtime CPU profile that `go tool pprof -raw`
// reads, and -exectrace FILE a runtime execution trace; neither changes a
// byte of the tables.
func TestProfileFlagsLeaveTheTablesAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-run", "e1", "-quick"}, args...)...).Output()
		if err != nil {
			t.Fatalf("experiments %v: %v", args, err)
		}
		return out
	}
	plain := run()
	cpu, trace := filepath.Join(dir, "e1.cpu.pprof"), filepath.Join(dir, "e1.trace")
	if profiled := run("-cpuprofile", cpu, "-exectrace", trace); !bytes.Equal(profiled, plain) {
		t.Errorf("tables differ with the profile flags on:\n%s\nwant:\n%s", profiled, plain)
	}
	txt, err := exec.Command("go", "tool", "pprof", "-raw", cpu).Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	if _, body, _ := strings.Cut(string(txt), "Samples:\n"); !strings.HasPrefix(body, "samples/count cpu/nanoseconds\n") {
		t.Errorf("CPU profile sample types %q, want samples/count and cpu/nanoseconds", strings.SplitN(body, "\n", 2)[0])
	}
	if tr, err := os.ReadFile(trace); err != nil || !bytes.HasPrefix(tr, []byte("go 1.")) {
		t.Errorf("execution trace: %v, starts %q", err, tr[:min(len(tr), 16)])
	}
}
