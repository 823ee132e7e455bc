package framework

import (
	"go/ast"
	"go/types"
)

// SpanBody returns the function a call runs under a new tracing span, or
// nil when call starts no span. A span starter is a function or method
// whose last parameter is a func taking a *Span, defined in a package
// named "tracing", as its second argument — tracing.Do, Tracer.Root and
// Inbound.Do — and the body is that argument. The body runs before the
// call returns, in the caller's goroutine. Matching by shape rather than
// import path keeps fixture stand-ins in scope alongside
// hotpaths/internal/tracing itself.
func SpanBody(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := Callee(info, call)
	if fn == nil || len(call.Args) == 0 {
		return nil
	}
	params := fn.Type().(*types.Signature).Params()
	body, ok := params.At(params.Len() - 1).Type().(*types.Signature)
	if !ok || body.Params().Len() != 2 ||
		types.TypeString(body.Params().At(1).Type(), (*types.Package).Name) != "*tracing.Span" {
		return nil
	}
	return call.Args[len(call.Args)-1]
}
