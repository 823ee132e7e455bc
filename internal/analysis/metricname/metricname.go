// Package metricname defines an analyzer that enforces the fleet's
// metric-naming contract at every registration site.
//
// # Contract
//
// Metric names are part of the wire protocol with Prometheus: dashboards
// and the bench trajectory gate key on them, so they follow the upstream
// naming conventions and never drift. The metrics registry's GetOrCreate
// semantics make double-registration safe only when every call site
// agrees on the kind — a name registered as both a counter and a gauge
// panics at runtime (metrics.Registry.family), which this analyzer moves
// to test time.
//
// At each Counter / Gauge / Histogram / GaugeFunc call on a
// *metrics.Registry the analyzer checks:
//
//   - the name is a compile-time constant (dynamic names defeat
//     registry idempotence and cardinality review)
//   - the name matches ^[a-z][a-z0-9_]*$ (Prometheus base naming)
//   - counters end in _total; gauges do NOT end in _total
//   - histograms end in a unit suffix: _seconds, _bytes or _records
//   - the help string is a non-empty constant
//   - all registrations of one name within the package agree on kind
//
// _test.go files are exempt: the registry's own tests register
// deliberately malformed names to exercise its runtime validation.
package metricname

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strings"

	"hotpaths/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "metricname",
	Doc:  "metric names follow Prometheus conventions and registration kinds agree across call sites",
	Run:  run,
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var registryMethods = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
	"GaugeFunc": "gauge",
}

func run(pass *framework.Pass) error {
	type registration struct {
		kind string
		pos  ast.Node
	}
	seen := make(map[string]registration)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			kind, ok := registryMethods[fn.Name()]
			if !ok || !framework.IsMethodOf(fn, "metrics", "Registry", fn.Name()) {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}

			name, isConst := constString(pass, call.Args[0])
			if !isConst {
				pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time constant so registrations stay idempotent and reviewable")
				return true
			}
			if !nameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q does not match Prometheus naming ^[a-z][a-z0-9_]*$", name)
			}
			switch kind {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total", name)
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") {
					pass.Reportf(call.Args[0].Pos(), "gauge %q must not end in _total; that suffix is reserved for counters", name)
				}
			case "histogram":
				if !hasUnitSuffix(name) {
					pass.Reportf(call.Args[0].Pos(), "histogram %q must end in a unit suffix: _seconds, _bytes or _records", name)
				}
			}
			if help, ok := constString(pass, call.Args[1]); ok && help == "" {
				pass.Reportf(call.Args[1].Pos(), "metric %q needs a non-empty help string", name)
			} else if !ok {
				pass.Reportf(call.Args[1].Pos(), "metric %q help string must be a compile-time constant", name)
			}
			if prev, dup := seen[name]; dup && prev.kind != kind {
				pass.Reportf(call.Pos(), "metric %q registered as %s here but as %s at %s; the registry panics on kind mismatch at runtime",
					name, kind, prev.kind, pass.Fset.Position(prev.pos.Pos()))
			} else if !dup {
				seen[name] = registration{kind: kind, pos: call}
			}
			return true
		})
	}
	return nil
}

func hasUnitSuffix(name string) bool {
	return strings.HasSuffix(name, "_seconds") ||
		strings.HasSuffix(name, "_bytes") ||
		strings.HasSuffix(name, "_records")
}

// constString evaluates e as a compile-time string constant.
func constString(pass *framework.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
