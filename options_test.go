package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the exported option fields under internal/ that no
// non-test code outside their own package sets, each with what its deletion
// waits on. The list may only shrink: an entry that gains a writer or stops
// existing fails the test too.
var optionAllowlist = map[string]string{
	"core.Config.FeatureGates":                   "benchmark/counts.go reads the snapshot controller the gate configures; goes with the benchmark unfreeze (ROADMAP item 1)",
	"csiplugin.FeatureGates.VolumeGroupSnapshot": "the gate core.Config.FeatureGates carries; goes with it (ROADMAP item 1)",
	"fabric.ClassConfig.MaxQueued":               "drop/retry admission; benchmark/counts.go reads TenantPath.DropRetries (ROADMAP item 1)",
	"fabric.Config.RetryBackoff":                 "the backoff of MaxQueued's drop/retry admission; goes with it (ROADMAP item 1)",
	"fleet.Config.JournalShards":                 "the fleet tests' only way to get sharded tenants; waits on a non-test fleet that shards (none yet)",
	"platform.APIConfig.CallLatency":             "the struct's only field, and benchmark/probes.go builds an APIConfig (ROADMAP item 1)",
}

// listedPackage is the part of `go list -json` output the option check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// TestEveryOptionHasAWriter fails on any exported field of an exported
// *Config, *Spec or *Gates struct under internal/ — or of an exported
// internal/ struct such a field holds as T, *T or []T — that no non-test file
// outside its package writes, as a composite-literal key or an assignment
// target: a setting nothing but its own package and the tests sets is a
// constant in disguise. Every package of the module is type-checked from
// source in dependency order, so a field is one object wherever it is used.
func TestEveryOptionHasAWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = repoRoot(t)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	options := map[*types.Var]string{} // field -> "pkg.Type.Field"
	written := map[*types.Var]bool{}
	for _, lp := range pkgs {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		if strings.Contains(lp.ImportPath, "/internal/") {
			collectOptions(pkg, options)
		}
		// markWritten records a write of a field declared in another package.
		markWritten := func(id *ast.Ident) {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				written[v] = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								markWritten(id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel := assignedSelector(lhs); sel != nil {
							markWritten(sel.Sel)
						}
					}
				case *ast.IncDecStmt:
					if sel := assignedSelector(n.X); sel != nil {
						markWritten(sel.Sel)
					}
				}
				return true
			})
		}
	}

	collectHeld(options)

	var unset []string
	found := map[string]bool{}
	for v, name := range options {
		found[name] = true
		_, allowed := optionAllowlist[name]
		switch {
		case !written[v] && !allowed:
			unset = append(unset, name)
		case written[v] && allowed:
			t.Errorf("%s is written outside its package now: drop it from optionAllowlist", name)
		}
	}
	for name := range optionAllowlist {
		if !found[name] {
			t.Errorf("optionAllowlist names %s, which no longer exists", name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test code outside its package sets it; make it a constant or delete it", name)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collectOptions maps each exported field of the package's exported *Config,
// *Spec and *Gates structs to its "pkg.Type.Field" name.
func collectOptions(pkg *types.Package, options map[*types.Var]string) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") ||
			strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Gates")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				options[f] = pkg.Name() + "." + name + "." + f.Name()
			}
		}
	}
}

// collectHeld adds the exported fields of every exported internal/ struct type
// an option field holds as T, *T or []T (platform.SLOClass, through
// core.Config.SLOClasses), and of the types those hold in turn.
func collectHeld(options map[*types.Var]string) {
	work := make([]*types.Var, 0, len(options))
	for v := range options {
		work = append(work, v)
	}
	for len(work) > 0 {
		t := work[len(work)-1].Type()
		work = work[:len(work)-1]
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		tn := named.Obj()
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !tn.Exported() || tn.Pkg() == nil || !strings.Contains(tn.Pkg().Path(), "/internal/") {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && options[f] == "" {
				options[f] = tn.Pkg().Name() + "." + tn.Name() + "." + f.Name()
				work = append(work, f)
			}
		}
	}
}

// assignedSelector returns the field selector an assignment target writes
// (x.F, x.F[i], (*x.F)), or nil when the target is not a field.
func assignedSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
