package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDesignBytes is DESIGN.md's byte budget: a ratchet like maxAllowlisted,
// lowered when the file shrinks, never raised.
const maxDesignBytes = 36365

var (
	citedTest   = regexp.MustCompile(`\bTest[A-Z]\w*`)
	definedTest = regexp.MustCompile(`(?m)^func (Test[A-Z]\w*)\(`)
)

// TestDesignCitesLiveTests keeps DESIGN.md from rotting: every test it names
// as the pin of a contract is defined in some _test.go of the module, and the
// file stays within maxDesignBytes.
func TestDesignCitesLiveTests(t *testing.T) {
	root := repoRoot(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > maxDesignBytes {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d: say it shorter", len(design), maxDesignBytes)
	}
	defined := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTest.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, name := range citedTest.FindAllString(string(design), -1) {
		if !cited[name] && !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go defines", name)
		}
		cited[name] = true
	}
	if len(cited) == 0 {
		t.Error("DESIGN.md cites no test")
	}
}
