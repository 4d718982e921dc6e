package repro

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokePackages lists every main package under cmd/ and examples/ — asked of
// `go list`, so a new binary cannot be left out. The smoke test keeps them
// compiling (they otherwise have zero test coverage).
func smokePackages(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...")
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) == 0 {
		t.Fatal("go list found no main packages under cmd/ and examples/")
	}
	return pkgs
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// TestSmokeBuildAllBinaries builds every cmd and example binary.
func TestSmokeBuildAllBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	pkgs := smokePackages(t)
	args := append([]string{"build", "-o", dir + string(os.PathSeparator)}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(pkgs) {
		t.Fatalf("built %d binaries, want %d (%v)", len(entries), len(pkgs), pkgs)
	}
}

// TestSmokeQuickstartDeterministic runs examples/quickstart twice and
// requires byte-identical, successful output — the determinism the whole
// reproduction rests on, exercised through a real binary.
func TestSmokeQuickstartDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "quickstart")
	build := exec.Command("go", "build", "-o", bin, "./examples/quickstart")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build quickstart: %v\n%s", err, out)
	}
	run := func() []byte {
		t.Helper()
		out, err := exec.Command(bin).CombinedOutput()
		if err != nil {
			t.Fatalf("quickstart: %v\n%s", err, out)
		}
		return out
	}
	out1 := run()
	out2 := run()
	if !bytes.Equal(out1, out2) {
		t.Fatalf("quickstart output differs across runs:\n--- run 1\n%s\n--- run 2\n%s", out1, out2)
	}
	for _, want := range []string{
		"backup is consistent",
		"simulation finished at virtual time",
	} {
		if !strings.Contains(string(out1), want) {
			t.Fatalf("quickstart output missing %q:\n%s", want, out1)
		}
	}
}

// TestSmokeDemoGoldens pins the paper's demo and the examples the way
// `make tables-check` pins the experiment tables: each binary's stdout, at
// the flags below, must equal its committed golden under testdata/ byte for
// byte (the output is deterministic; the one scheduler is sequential). A
// change that means to move one regenerates it from the repository root:
//
//	go run ./cmd/backupdemo > testdata/backupdemo.golden
//	go run ./cmd/backupdemo -disaster > testdata/backupdemo-disaster.golden
//	go run ./examples/quickstart > testdata/quickstart.golden
//	go run ./examples/ransomware > testdata/ransomware.golden
//	go run ./examples/analytics > testdata/analytics.golden
//
// and explains every changed line in CHANGES.md.
func TestSmokeDemoGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/backupdemo", "./examples/quickstart", "./examples/ransomware", "./examples/analytics")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		bin    string
		args   []string
		golden string
	}{
		{"backupdemo", nil, "backupdemo.golden"},
		{"backupdemo", []string{"-disaster"}, "backupdemo-disaster.golden"},
		{"quickstart", nil, "quickstart.golden"},
		{"ransomware", nil, "ransomware.golden"},
		{"analytics", nil, "analytics.golden"},
	} {
		want, err := os.ReadFile(filepath.Join(root, "testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, c.bin), c.args...)
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Errorf("%s %v: %v\n%s", c.bin, c.args, err, stderr.Bytes())
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %v: output differs from testdata/%s at %s", c.bin, c.args, c.golden, firstDiff(want, got))
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, line(w), line(g))
}

// TestSmokeExperimentsRejectsUnknownRunID pins the -run contract of
// cmd/experiments: a typo'd id is refused with exit status 2 and the valid
// range, before any experiment runs — never a silent, empty success. Every
// valid id selects exactly its own tables: run alone, in catalog order, the
// ids reproduce the `-run all` golden byte for byte (the per-id selection
// telemetry-smoke and autopilot-smoke rely on, which -run all cannot see).
func TestSmokeExperimentsRejectsUnknownRunID(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build experiments: %v\n%s", err, out)
	}
	for _, run := range []string{"e99", "e1,e77", "e0", "1", "e+1", ""} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-run", run, "-quick")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-run %q: err = %v, want exit status 2", run, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-run %q printed tables before refusing:\n%s", run, stdout.String())
		}
		if !strings.Contains(stderr.String(), "e1..e18") {
			t.Errorf("-run %q: stderr does not name the valid ids: %q", run, stderr.String())
		}
	}
	out, err := exec.Command(bin, "-run", " E2 ", "-quick").Output()
	if err != nil || !strings.Contains(string(out), "== E2:") {
		t.Errorf("-run E2 (case and spaces tolerated): err=%v out=%q", err, out)
	}
	want, err := os.ReadFile(filepath.Join(repoRoot(t), "testdata", "experiments-quick-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e9"} {
		out, err := exec.Command(bin, "-run", id, "-quick", "-seed", "1").Output()
		if err != nil {
			t.Fatalf("-run %s: %v", id, err)
		}
		got = append(got, out...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("per-id runs concatenated differ from testdata/experiments-quick-seed1.golden at %s", firstDiff(want, got))
	}
}
