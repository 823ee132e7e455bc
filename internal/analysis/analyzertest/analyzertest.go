// Package analyzertest runs a framework.Analyzer over a fixture package
// under testdata/src/<name> and checks its findings against `// want`
// comments — the x/tools analysistest workflow, reimplemented on the
// standard library so the main module stays dependency-free.
//
// Fixture files annotate the lines they expect findings on:
//
//	if strings.Contains(err.Error(), "gone") { // want `use errors\.Is`
//
// Each backquoted (or double-quoted) string after `// want` is a regular
// expression that must match exactly one finding reported on that line;
// findings on lines without a matching want — and wants without a
// finding — fail the test. Fixtures may import real repo packages
// (hotpaths/internal/tracing, hotpaths/internal/metrics, ...): the
// fixture is loaded by framework.Load, the loader TestContracts runs on
// the repository, so it sees the same type information. A fixture line
// suppressed by a //hotpathsvet:ignore directive must NOT carry a want —
// that is exactly how directive behaviour is tested.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hotpaths/internal/analysis/framework"
)

// Run analyzes testdata/src/<pkgname> (relative to the calling test's
// package directory) with the analyzer and asserts findings == wants.
func Run(t *testing.T, a *framework.Analyzer, pkgname string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkgname))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.Load([]string{dir})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded as %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.TypeErrors[0])
	}
	diags, err := framework.RunAnalyzers(pkg, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants, err := parseWants(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no finding matched `// want %s`", w.file, w.line, w.re)
		}
	}
}

// want is one expected-finding annotation.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func parseWants(fset *token.FileSet, files []*ast.File) ([]want, error) {
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text[len("want "):], -1)
				if len(ms) == 0 {
					return nil, fmt.Errorf("%s: `// want` without a backquoted pattern", pos)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern: %v", pos, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}
