package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// The four protocol analyzers share one dataflow computation (flow.go)
// and pull their findings out of it by name; ctxleak is a separate
// syntactic pass.

// PairDiscipline checks that every borrow's handle reaches its closer
// (Release, Commit/CommitToValue, Publish) on every path out of the
// function, including early returns. Functions that return the handle to
// their caller (wrappers like dset.Get) are exempt on the returning
// path, and a close of a handle with no local opener is never flagged
// (the closing half of such a wrapper).
var PairDiscipline = &Analyzer{
	Name: "pairdiscipline",
	Doc:  "a borrow's handle must reach its closer on every path",
	run: func(p *Pass) []Diagnostic {
		return p.protocol().diags["pairdiscipline"]
	},
}

// BorrowEscape checks that a borrowed Item does not outlive the close of
// its handle: stored into a struct field or package-level
// variable, sent on a channel, or captured by a closure handed to a
// goroutine or asynchronous task. The storage belongs to the per-node
// cache and is invalid after the borrow ends; the dynamic checker only
// catches the stale access if it happens to execute.
var BorrowEscape = &Analyzer{
	Name: "borrowescape",
	Doc:  "a borrowed Item must not outlive its handle's close",
	run: func(p *Pass) []Diagnostic {
		return p.protocol().diags["borrowescape"]
	},
}

// SingleAssign checks the single-assignment discipline on values:
// no writes through a UseValue/ReadChaotic borrow (reads only), no
// writes to a value's item after Publish, and no second publication of
// the same name on one path.
var SingleAssign = &Analyzer{
	Name: "singleassign",
	Doc:  "values are single-assignment; use/chaotic borrows are read-only",
	run: func(p *Pass) []Diagnostic {
		return p.protocol().diags["singleassign"]
	},
}

// HoldBlock warns when a blocking operation (Barrier, UseValue,
// NextTask, BeginRenameValue, or a nested UpdateAccum) can run between
// UpdateAccum and its Commit: accumulator access is mutually exclusive,
// so a holder that blocks on another processor can deadlock (paper
// section 3.2).
var HoldBlock = &Analyzer{
	Name: "holdblock",
	Doc:  "no blocking operations while holding an accumulator",
	run: func(p *Pass) []Diagnostic {
		return p.protocol().diags["holdblock"]
	},
}

// CtxLeak checks that a runtime context (core.Ctx / sam.Ctx) never
// escapes the process it belongs to: not stored in a struct or
// package-level variable, not passed to or captured by a spawned
// goroutine, and not passed to a callee whose interprocedural summary
// says it retains the context. Capture by an asynchronous-operation
// callback is not a leak — the callback runs in the owning process's
// handler context — but blocking there is; handlerblock checks that.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "a Ctx is per-process and must stay on its own call stack",
	run:  runCtxLeak,
}

const ctxHint = "pass the Ctx only down the call stack of its own process"

func runCtxLeak(p *Pass) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      p.Pkg.Fset.Position(pos),
			Analyzer: "ctxleak",
			Message:  msg,
			Hint:     ctxHint,
		})
	}
	isCtxExpr := func(e ast.Expr) bool {
		tv, ok := p.Pkg.Info.Types[e]
		return ok && isCtxType(tv.Type)
	}
	// captured flags identifiers inside fl that use a Ctx-typed variable
	// declared outside the literal.
	captured := func(fl *ast.FuncLit, what string) {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[id]
			if obj == nil || !isCtxType(obj.Type()) {
				return true
			}
			if obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
				return true // declared inside the literal; its own ctx
			}
			report(id.Pos(), "Ctx captured by "+what)
			return true
		})
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					if !isCtxExpr(n.Rhs[i]) {
						continue
					}
					t := p.resolveTarget(n.Lhs[i])
					switch {
					case t.field:
						report(n.Rhs[i].Pos(), "Ctx stored in a struct field; contexts are per-process and must not be retained")
					case t.global:
						report(n.Rhs[i].Pos(), "Ctx stored in a package-level variable; contexts are per-process and must not be retained")
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isCtxExpr(v) {
						report(v.Pos(), "Ctx stored in a composite literal; contexts are per-process and must not be retained")
					}
				}
			case *ast.GoStmt:
				for _, a := range n.Call.Args {
					if isCtxExpr(a) {
						report(a.Pos(), "Ctx passed to a spawned goroutine; contexts are per-process")
					}
				}
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					captured(fl, "a spawned goroutine")
				} else if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && isCtxExpr(sel.X) {
					report(sel.X.Pos(), "Ctx method launched as a goroutine; contexts are per-process")
				}
			case *ast.CallExpr:
				// Interprocedural: passing a Ctx to a function whose
				// summary says the parameter escapes is the same leak,
				// one call deeper. Captures by asynchronous callbacks are
				// deliberately NOT escapes: the callback runs in the
				// owning process's own handler context, where the hazard
				// is blocking — handlerblock's job, checked precisely.
				if p.Prog != nil {
					if pf := p.Prog.calleeOf(p, n); pf != nil && pf.sum != nil {
						for _, idx := range sortedKeys(pf.sum.ctxEscapes) {
							if idx < len(n.Args) && isCtxExpr(n.Args[idx]) {
								report(n.Args[idx].Pos(),
									fmt.Sprintf("Ctx passed to %s, which retains it beyond the call", pf.name()))
							}
						}
					}
				}
			}
			return true
		})
	}
	return diags
}
