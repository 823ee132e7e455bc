// Package locksnapshot defines an analyzer that keeps expensive or
// blocking work out of the engine and coordinator write-lock critical
// sections.
//
// # Contract
//
// The engine's single sync.RWMutex serialises every write; the tick
// loop, the gateway's routing table and the subscription hub all hold
// plain mutexes on their hot paths. Work done under those locks is work
// every other writer waits for, so the critical sections must stay
// O(dirty set): no building full O(paths) snapshots, no blocking channel
// sends, and absolutely no network round-trips. Each of those has been a
// reviewed-away regression risk since PR 4.
//
// Inside a region where a sync.Mutex or sync.RWMutex write lock is held
// (between x.Lock() and x.Unlock(), to the end of the function when the
// unlock is deferred, and throughout functions whose name ends in
// "Locked" — the repo convention for "caller holds the lock"; the body a
// tracing.Do runs in place counts as part of the region around it), the
// analyzer flags:
//
//   - calls to any method named Snapshot — except when the enclosing
//     function is itself named Snapshot, which is the sanctioned
//     delegation pattern (Durable.Snapshot → sys.Snapshot under d.mu)
//   - channel sends not wrapped in a select with a default clause
//     (a send to a full/unbuffered channel blocks every writer behind
//     the lock)
//   - network I/O: net.Dial*, http.Get/Post/PostForm/Head, and any
//     method on *net/http.Client
//
// RLock sections are not checked: readers don't serialise each other.
// Scope: internal/engine, internal/gateway, internal/coordinator and
// the root hotpaths package.
package locksnapshot

import (
	"go/ast"
	"go/types"
	"strings"

	"hotpaths/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "locksnapshot",
	Doc:  "no Snapshot(), blocking channel send, or network I/O while holding an engine/coordinator write lock",
	Run:  run,
}

var scopeFragments = []string{
	"internal/engine",
	"internal/gateway",
	"internal/coordinator",
	"/testdata/",
}

func inScope(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	if pkg.Name() == "hotpaths" {
		return true // the root package owns the subscription hub and Durable
	}
	for _, frag := range scopeFragments {
		if strings.Contains(pkg.Path(), frag) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := &scanner{pass: pass, funcName: fd.Name.Name}
			// *Locked suffix is the repo convention: caller holds the lock.
			s.block(fd.Body.List, strings.HasSuffix(fd.Name.Name, "Locked"))
		}
	}
	return nil
}

type scanner struct {
	pass     *framework.Pass
	funcName string
}

// block walks a statement list carrying the held-lock state. Nested
// function literals are skipped: they run later, usually on another
// goroutine, outside the critical section. The exception is the body of
// a span starter (tracing.Do and its kin), which runs in place; see
// spanBodies.
func (s *scanner) block(stmts []ast.Stmt, held bool) {
	for _, stmt := range stmts {
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			switch s.lockOp(st.X) {
			case opLock:
				held = true
				continue
			case opUnlock:
				held = false
				continue
			}
			if held {
				s.checkExpr(st.X)
			}
			s.spanBodies(st.X, held)
		case *ast.DeferStmt:
			// defer x.Unlock() releases at return: held stays true for
			// the rest of the body. Other deferred work runs after (or
			// before, LIFO) the unlock — not checked.
			continue
		case *ast.GoStmt:
			continue // runs on its own goroutine
		case *ast.SendStmt:
			if held {
				s.pass.Reportf(st.Pos(), "channel send while holding the write lock can block every writer; send after unlocking, or use select with default")
			}
		case *ast.SelectStmt:
			if held {
				hasDefault := false
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					for _, c := range st.Body.List {
						cc := c.(*ast.CommClause)
						if send, ok := cc.Comm.(*ast.SendStmt); ok {
							s.pass.Reportf(send.Pos(), "select without default around this send still blocks under the write lock; add a default branch or move the send out")
						}
					}
				}
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					s.block(cc.Body, held)
				}
			}
		case *ast.IfStmt:
			if held {
				if st.Init != nil {
					s.checkStmtExprs(st.Init)
				}
				s.checkExpr(st.Cond)
			}
			if st.Init != nil {
				s.spanBodies(st.Init, held)
			}
			s.block(st.Body.List, held)
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				s.block(e.List, held)
			case *ast.IfStmt:
				s.block([]ast.Stmt{e}, held)
			}
		case *ast.ForStmt:
			s.block(st.Body.List, held)
		case *ast.RangeStmt:
			if held {
				s.checkExpr(st.X)
			}
			s.block(st.Body.List, held)
		case *ast.SwitchStmt:
			if held && st.Tag != nil {
				s.checkExpr(st.Tag)
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					s.block(cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					s.block(cc.Body, held)
				}
			}
		case *ast.BlockStmt:
			s.block(st.List, held)
		case *ast.LabeledStmt:
			s.block([]ast.Stmt{st.Stmt}, held)
		default:
			if held {
				s.checkStmtExprs(stmt)
			}
			s.spanBodies(stmt, held)
		}
	}
}

// spanBodies walks, with the held-lock state of the statement around
// them, the function literals that n's calls run under a tracing span:
// such a body runs before the call returns, inside the caller's critical
// section.
func (s *scanner) spanBodies(n ast.Node, held bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := framework.SpanBody(s.pass.TypesInfo, n).(*ast.FuncLit); ok {
				s.block(lit.Body.List, held)
			}
		}
		return true
	})
}

// checkStmtExprs checks a leaf statement's expressions under the lock.
func (s *scanner) checkStmtExprs(stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			s.checkOne(e)
		}
		return true
	})
}

func (s *scanner) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			s.checkOne(e)
		}
		return true
	})
}

// checkOne flags a single expression if it is a forbidden call.
func (s *scanner) checkOne(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := framework.Callee(s.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if fn.Name() == "Snapshot" && framework.RecvNamed(fn) != nil {
		if s.funcName != "Snapshot" {
			s.pass.Reportf(call.Pos(), "Snapshot() under the write lock does O(paths) work while every writer waits; snapshot outside the lock or delegate from a Snapshot method")
		}
		return
	}
	if isNetIO(fn) {
		s.pass.Reportf(call.Pos(), "network I/O (%s.%s) while holding the write lock stalls every writer for a round-trip; do it outside the critical section", pkgName(fn), fn.Name())
	}
}

func pkgName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}

func isNetIO(fn *types.Func) bool {
	switch {
	case framework.IsPkgFunc(fn, "net", "Dial"),
		framework.IsPkgFunc(fn, "net", "DialTimeout"),
		framework.IsPkgFunc(fn, "net/http", "Get"),
		framework.IsPkgFunc(fn, "net/http", "Post"),
		framework.IsPkgFunc(fn, "net/http", "PostForm"),
		framework.IsPkgFunc(fn, "net/http", "Head"):
		return true
	}
	// Any method on *net/http.Client (Do, Get, Post, ...).
	named := framework.RecvNamed(fn)
	if named == nil || named.Obj().Name() != "Client" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "net/http"
}

type lockKind int

const (
	opNone lockKind = iota
	opLock
	opUnlock
)

// lockOp classifies x.Lock() / x.Unlock() calls on sync.Mutex or
// sync.RWMutex values (RLock/RUnlock are deliberately opNone).
func (s *scanner) lockOp(e ast.Expr) lockKind {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return opNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone
	}
	var kind lockKind
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "Unlock":
		kind = opUnlock
	default:
		return opNone
	}
	tv, ok := s.pass.TypesInfo.Types[sel.X]
	if !ok {
		return opNone
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return opNone
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return opNone
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return opNone
	}
	return kind
}
