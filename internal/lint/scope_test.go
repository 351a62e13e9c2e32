package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimScopeCoversInternalPackages asserts the scope table is total: every
// package directory under internal/ is either in SimScopePackages or in
// SimScopeExemptions with a written reason. A new internal package must pick
// a side before it builds green.
func TestSimScopeCoversInternalPackages(t *testing.T) {
	exempt := map[string]string{}
	for _, e := range SimScopeExemptions {
		if e.Reason == "" {
			t.Errorf("exemption for internal/%s carries no reason; exempting is a reviewed decision", e.Pkg)
		}
		if _, dup := exempt[e.Pkg]; dup {
			t.Errorf("internal/%s is exempted twice", e.Pkg)
		}
		exempt[e.Pkg] = e.Reason
	}

	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatalf("reading internal/: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		inScope := InSimScope("rtseed/internal/" + name)
		_, isExempt := exempt[name]
		switch {
		case inScope && isExempt:
			t.Errorf("internal/%s is both in SimScopePackages and exempted; pick one", name)
		case !inScope && !isExempt:
			t.Errorf("internal/%s is neither in SimScopePackages nor in SimScopeExemptions; new packages must not silently dodge the determinism analyzers", name)
		}
	}
	for _, name := range SimScopePackages {
		if !seen[name] {
			t.Errorf("SimScopePackages names internal/%s, which does not exist", name)
		}
	}
	for name := range exempt {
		if !seen[name] {
			t.Errorf("SimScopeExemptions names internal/%s, which does not exist", name)
		}
	}
}

// TestSimScopeExemptRTNotImported keeps the rt exemption honest: internal/rt
// runs on the host clock and is outside the contract, so nothing inside the
// scope may import it — otherwise the exemption would leak wall-clock
// behavior into packages the analyzers certify as reproducible.
func TestSimScopeExemptRTNotImported(t *testing.T) {
	const banned = "rtseed/internal/rt"
	fset := token.NewFileSet()
	for _, name := range SimScopePackages {
		root := filepath.Join("..", name)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if p == banned || strings.HasPrefix(p, banned+"/") {
					t.Errorf("%s imports %s; in-scope packages must not depend on the host-clock runtime", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking internal/%s: %v", name, err)
		}
	}
}

// TestOraclesNotImportedByProductionCode keeps the test-only reference
// implementations out of the shipped program: internal/engine/oracle (the
// min-heap event queue) and internal/kernel/oracle (the blocking-script
// adapter) exist for differential tests and benchmarks, so no non-test file
// under cmd/, examples/ or internal/ may import them — otherwise the
// blocking thread API the kernel deliberately no longer offers would creep
// back into production through the adapter.
func TestOraclesNotImportedByProductionCode(t *testing.T) {
	oracles := []string{"rtseed/internal/engine/oracle", "rtseed/internal/kernel/oracle"}
	own := []string{filepath.Join("..", "engine", "oracle"), filepath.Join("..", "kernel", "oracle")}
	fset := token.NewFileSet()
	for _, root := range []string{filepath.Join("..", "..", "cmd"), filepath.Join("..", "..", "examples"), ".."} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				for _, dir := range own {
					if filepath.Clean(path) == dir {
						return filepath.SkipDir
					}
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				for _, banned := range oracles {
					if p == banned {
						t.Errorf("%s imports %s; the oracles are test-only and production code must not depend on them", path, p)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}
