package atrapos

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPricedPackagesAreSingleOwner guards the single-owner priced model: a
// priced run is one goroutine, so the packages only it reaches carry no
// mutexes and no atomics, and each type's doc comment says who reaches it.
// Only two things run on more than one goroutine — the harness pool, which
// gives each point its own engine, and the executed executors, which touch
// none of these packages' mutable state — so a sync import here is either
// dead weight on every priced transaction or a sharing bug to fix where it
// is. The one exception is topology's memoized numactl parse, which the
// pool's goroutines reach through profile lookups.
func TestPricedPackagesAreSingleOwner(t *testing.T) {
	packages := []string{"numa", "txn", "core", "wal", "obs", "vclock", "device", "topology", "schema", "lock", "btree", "storage"}
	allowed := map[string]string{"internal/topology/numactl.go": "sync"}
	fset := token.NewFileSet()
	for _, pkg := range packages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				name, _ := strconv.Unquote(imp.Path.Value)
				if name != "sync" && name != "sync/atomic" {
					continue
				}
				if allowed[filepath.ToSlash(path)] == name {
					continue
				}
				t.Errorf("%s imports %q: the priced model is single-owner; write the who-reaches-it argument instead", path, name)
			}
		}
	}
}
