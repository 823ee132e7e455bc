// Package batchclock defines an analyzer that keeps observability at
// batch granularity on the hot paths.
//
// # Contract
//
// The ingest path meters work once per call, never once per record: a
// single time.Now() pair brackets the batch, one histogram observation
// records it, and one span covers it (PR 6/8 hold the whole
// observability layer to a +0.7% throughput overhead budget, which a
// per-record clock read or span allocation would blow by orders of
// magnitude on a 10k-record batch). Per-record counter *increments* are
// fine — they are a single add — and code outside the hot packages may
// do as it likes.
//
// The analyzer therefore flags, inside any for/range loop body in
// internal/engine, internal/wal and internal/gateway (non-test files):
//
//   - time.Now / time.Since calls
//   - Observe / ObserveSince on a metrics Histogram
//   - starting a tracing span
//
// Function literals inside a loop are not descended into: goroutines
// launched per shard or per upstream legitimately time their own work
// at that coarser granularity (the gateway's scatter loop does exactly
// this).
package batchclock

import (
	"go/ast"
	"strings"

	"hotpaths/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "batchclock",
	Doc:  "no time.Now, histogram Observe, span creation, or flight-recorder events inside per-record loops on hot paths",
	Run:  run,
}

// hotPackages are the import-path fragments that mark a package as a
// hot path. "/testdata/" keeps analyzer fixtures in scope.
var hotPackages = []string{
	"internal/engine",
	"internal/wal",
	"internal/gateway",
	"internal/flightrec",
	"/testdata/",
}

func inScope(pkgPath string) bool {
	for _, frag := range hotPackages {
		if strings.Contains(pkgPath, frag) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // benchmarks and tests measure per-record on purpose
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkLoopBody(pass, body)
			return true // nested loops get their own (redundant but harmless) pass
		})
	}
	return nil
}

// checkLoopBody flags per-record metering anywhere in the loop body,
// except inside nested function literals.
func checkLoopBody(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		switch {
		case framework.IsPkgFunc(fn, "time", "Now") || framework.IsPkgFunc(fn, "time", "Since"):
			pass.Reportf(call.Pos(), "time.%s inside a loop on a hot path reads the clock per record; hoist it and time the whole batch once", fn.Name())
		case framework.IsMethodOf(fn, "metrics", "Histogram", "Observe") || framework.IsMethodOf(fn, "metrics", "Histogram", "ObserveSince"):
			pass.Reportf(call.Pos(), "histogram %s inside a loop on a hot path records per record; observe once per batch after the loop", fn.Name())
		case framework.SpanBody(pass.TypesInfo, call) != nil:
			pass.Reportf(call.Pos(), "starting a span inside a loop on a hot path allocates per record; one span must cover the whole batch")
		case framework.IsMethodOf(fn, "flightrec", "Recorder", "Record") || framework.IsMethodOf(fn, "flightrec", "Recorder", "RecordCtx"):
			pass.Reportf(call.Pos(), "flight-recorder %s inside a loop on a hot path emits an event per record; record one event per batch after the loop", fn.Name())
		}
		return true
	})
}
