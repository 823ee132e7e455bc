// Package analysis_test holds TestContracts, which runs the repository's
// contract analyzers over every package of the module, test files
// included, so `go test ./...` enforces the contracts.
package analysis_test

import (
	"slices"
	"testing"

	"hotpaths/internal/analysis/batchclock"
	"hotpaths/internal/analysis/errstring"
	"hotpaths/internal/analysis/framework"
	"hotpaths/internal/analysis/locksnapshot"
)

// contracts is the suite: each analyzer's Doc states the contract it
// enforces.
var contracts = []*framework.Analyzer{
	batchclock.Analyzer,
	errstring.Analyzer,
	locksnapshot.Analyzer,
}

// TestContracts fails on any finding, on a //hotpathsvet:ignore
// directive without a reason, and on a package that does not
// type-check. A deliberate exception is waived at its line:
//
//	//hotpathsvet:ignore locksnapshot flush barrier: queues quiesce under the lock by design
func TestContracts(t *testing.T) {
	pkgs, err := framework.Load([]string{"hotpaths/..."})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against a vacuous pass: the load must reach the module's
	// packages, with test files (the root package's test variant).
	const rootTests = "hotpaths [hotpaths.test]"
	if !slices.ContainsFunc(pkgs, func(p *framework.Package) bool { return p.ImportPath == rootTests }) {
		t.Fatalf("loaded %d packages without %q", len(pkgs), rootTests)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: %v", pkg.ImportPath, terr)
		}
		diags, err := framework.RunAnalyzers(pkg, contracts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Error(d)
		}
	}
	t.Logf("%d packages checked", len(pkgs))
}
