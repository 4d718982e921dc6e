package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the functions under internal/ that no program links,
// each with why it stays. The list may only shrink: an entry that gains a
// program caller or stops existing fails the test too, and so does a list
// longer than maxUnlinked — a function only tests call is deleted, and its
// tests read the linked path for the same fact.
var linkAllowlist = map[string]string{
	"platform.APIServer.Each":        "TestFleetNeverMutatesSharedAPIObjects audits every stored object through it; Names drops the namespace, so Names and Cached cannot replace it",
	"platform.Controller.Reconciles": "TestTagByHandNeedsNoTenantObject pins that a hand-tagged namespace charges no tenant-controller reconcile",
	"platform.Controller.QueueLen":   "TestControllerDeduplicatesQueue and TestControllerDirtyKeyRequeuesOnce pin the work queue's dedup through it",
	"db.reader.SawTornTail":          "TestEveryCrashPointRecovers classifies each crash point by it, and that test stays unedited",
	"storage.Volume.Writes":          "TestEveryCrashPointRecovers checks that a refused open wrote nothing by it, and that test stays unedited",
	"storage.Volume.Reads":           "TestLogReadStopsWhereTheLogEnds and TestBothDoorsPreloadTheDataRegionOnFirstScan count a replay's block reads by it",
	"sim.Env.Pending":                "TestWaitTimeoutReclaimsTimerEntry watches the event queue drain by it",
	"sim.Env.Trace":                  "the golden-trace and replay tests compare two runs step by step through it",
	"sim.Resource.InUse":             "TestResourceLimitsParallelism pins that a resource never grants more units than it has",
}

// maxUnlinked is linkAllowlist's ratchet: lower it when an entry goes, never
// raise it.
const maxUnlinked = 9

// TestEveryLibraryFunctionIsLinked builds every main package of the module
// with inlining off, so a called function keeps its own symbol, and fails on
// any function or method declared in a non-test file under internal/ that
// none of the binaries contains and linkAllowlist does not name. A generic
// function counts as linked when any instantiation of it is.
func TestEveryLibraryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	root := repoRoot(t)
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var mains []string
	declared := map[string]string{} // "repro/internal/pkg.Type.Method" -> "pkg.Type.Method"
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "\t", 4)
		importPath, name, dir, files := f[0], f[1], f[2], strings.Fields(f[3])
		if name == "main" {
			mains = append(mains, importPath)
		}
		if !strings.Contains(importPath, "/internal/") {
			continue
		}
		for _, file := range files {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					fn := funcName(fd)
					declared[importPath+"."+fn] = name + "." + fn
				}
			}
		}
	}
	if len(mains) == 0 {
		t.Fatal("go list found no main packages")
	}

	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(os.PathSeparator)}, mains...)...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, e := range entries {
		nm := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name()))
		out, err := nm.Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "  4d5de0 T repro/internal/analytics.Join.func1"
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], "repro/") {
				continue
			}
			for _, name := range symbolFuncs(f[2]) {
				linked[name] = true
			}
		}
	}

	var unlinked []string
	found := map[string]bool{}
	for full, short := range declared {
		found[short] = true
		_, allowed := linkAllowlist[short]
		switch {
		case !linked[full] && !allowed:
			unlinked = append(unlinked, short)
		case linked[full] && allowed:
			t.Errorf("%s is linked by a program now: drop it from linkAllowlist", short)
		}
	}
	for short := range linkAllowlist {
		if !found[short] {
			t.Errorf("linkAllowlist names %s, which no longer exists", short)
		}
	}
	if len(linkAllowlist) > maxUnlinked {
		t.Errorf("linkAllowlist has %d entries, more than %d: delete the unlinked function instead", len(linkAllowlist), maxUnlinked)
	}
	sort.Strings(unlinked)
	for _, short := range unlinked {
		t.Errorf("%s: no program links it; delete it, or call it from the program that needs it", short)
	}
}

// funcName is a declaration's "Func" or "Type.Method", with a generic
// receiver's type parameters dropped.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// symbolFuncs reduces a linker symbol to the declarations it may have been
// compiled from: "repro/internal/ring.(*Ring[go.shape.*uint8]).Len" to
// "repro/internal/ring.Ring.Len" and its dot-prefixes, so a closure
// ("X.func1"), a method value ("X-fm") or another wrapper of X marks X too.
// A prefix that names a type or a package marks nothing declared.
func symbolFuncs(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s, _, _ := strings.Cut(b.String(), "-")
	names := []string{s}
	for i := len(s) - 1; i > strings.LastIndex(s, "/"); i-- {
		if s[i] == '.' {
			names = append(names, s[:i])
		}
	}
	return names
}
