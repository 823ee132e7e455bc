package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// TypeErrors holds type-checking problems. Analyses still run — the
	// AST and partial type info are usually good enough — but the driver
	// surfaces them so a broken build is never mistaken for a clean one.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath      string
	Dir             string
	Name            string
	Export          string
	Standard        bool
	DepOnly         bool
	ForTest         string
	GoFiles         []string
	CgoFiles        []string
	CompiledGoFiles []string
	ImportMap       map[string]string
	Error           *struct{ Err string }
}

// Load resolves patterns with the go command, then parses and
// type-checks every matched (non-dependency) package from source, using
// `go list -export`-produced export data for imports — the same scheme
// x/tools' go/packages uses, without the dependency. Test files are
// analyzed too: a package's test variant replaces the plain package, so
// each file is analyzed once.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = new(bytes.Buffer)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, cmd.Stderr)
	}

	var all []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		all = append(all, lp)
	}

	// Export data for every resolved package, for the type-checker's
	// importer.
	exports := make(map[string]string)
	// Packages replaced by a test variant ("hotpaths [hotpaths.test]"
	// covers all of "hotpaths" plus its _test.go files).
	replaced := make(map[string]bool)
	for _, lp := range all {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.ForTest != "" && !lp.DepOnly && strings.Contains(lp.ImportPath, " [") {
			replaced[lp.ForTest] = true
		}
	}

	var pkgs []*Package
	for _, lp := range all {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue // generated test main package
		}
		if replaced[lp.ImportPath] {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := check(lp, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package against its
// dependencies' export data.
func check(lp *listedPackage, exports map[string]string) (*Package, error) {
	files := lp.CompiledGoFiles
	if len(files) == 0 {
		files = lp.GoFiles
	}
	fset := token.NewFileSet()
	var asts []*ast.File
	for _, name := range files {
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, path)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		asts = append(asts, f)
	}

	pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, Files: asts}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = NewTypesInfo()
	// Check returns an error on any issue; the Error hook already
	// collected them, so the partial package is still usable.
	pkg.Types, _ = conf.Check(lp.ImportPath, fset, asts, pkg.Info)
	return pkg, nil
}

// NewTypesInfo returns a types.Info with every map analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
