package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// analyzers2.go holds the whole-program analyzers introduced with the
// interprocedural summary engine (program.go): handlerblock, replyonce
// and wirereg. They all need a *Program — under the
// single-package Run entry point one is built on the fly, so the golden
// tests exercise them too.

// HandlerBlock checks that no operation that can park the process is
// reachable from code that runs in a serving context: the callback of an
// asynchronous SAM operation (FetchValueAsync and friends run their
// callbacks inside the request handler of the owning node) and every
// function marked //samlint:nonblocking (the store server's opcode
// handlers, which run on the SAM serving loop). Reachability follows
// call summaries, so a blocking call buried two helpers deep is still
// found — with the chain spelled out in the message.
var HandlerBlock = &Analyzer{
	Name: "handlerblock",
	Doc:  "handler-context code (async callbacks, //samlint:nonblocking) must not block",
	run:  runHandlerBlock,
}

const handlerBlockHint = "handler-context code must finish without parking the process; " +
	"use the asynchronous API or hand the work to an application process"

func runHandlerBlock(p *Pass) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Pos:      p.Pkg.Fset.Position(pos),
			Analyzer: "handlerblock",
			Message:  msg,
			Hint:     handlerBlockHint,
		})
	}
	for _, pf := range prog.pkgFuncs(p) {
		if !pf.nonblocking {
			continue
		}
		for _, b := range prog.blockersIn(p, pf.decl.Body) {
			report(b.pos, fmt.Sprintf("%s may block, but %s is declared nonblocking (it runs on the serving loop)",
				b.desc, pf.name()))
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op := p.samCall(call)
			cbIdx := asyncCallbackArg(op)
			if cbIdx < 0 || cbIdx >= len(call.Args) {
				return true
			}
			fl, ok := unwrap(call.Args[cbIdx]).(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, b := range prog.blockersIn(p, fl.Body) {
				report(b.pos, fmt.Sprintf("%s may block inside a %s callback, which runs in handler context",
					b.desc, opName[op]))
			}
			return true
		})
	}
	return diags
}

// ReplyOnce checks that request handlers reply exactly once on every
// path. Roots are the functions marked //samlint:replyonce; their
// request parameter type (a named type called Req) makes every function
// taking that type a handler too, checked through the same machinery, so
// dispatch targets and helpers carry the obligation without per-function
// annotations. See replyflow.go for the dataflow.
var ReplyOnce = &Analyzer{
	Name: "replyonce",
	Doc:  "request handlers must reply exactly once on every path",
	run:  runReplyOnce,
}

func runReplyOnce(p *Pass) []Diagnostic {
	prog := p.Prog
	if prog == nil || len(prog.reqTypes) == 0 {
		return nil
	}
	var diags []Diagnostic
	emit := func(pos token.Pos, msg, hint string) {
		diags = append(diags, Diagnostic{
			Pos:      p.Pkg.Fset.Position(pos),
			Analyzer: "replyonce",
			Message:  msg,
			Hint:     hint,
		})
	}
	for _, pf := range prog.pkgFuncs(p) {
		if pf.replyPrim {
			continue
		}
		var reqObj types.Object
		for _, obj := range declParamObjs(p, pf.decl) {
			if obj != nil && prog.reqTypes[typeKey(derefType(obj.Type()))] {
				reqObj = obj
				break
			}
		}
		if reqObj == nil {
			continue
		}
		// Un-annotated functions are only obligated when they reply at
		// all; a pure inspector of a request carries no obligation.
		if !pf.replyOnce && (pf.sum == nil || pf.sum.replies == nil) {
			continue
		}
		_, max := prog.replyCheck(pf, reqObj, emit)
		if pf.replyOnce && max == 0 {
			emit(pf.decl.Name.Pos(),
				fmt.Sprintf("%s is declared replyonce but no path sends a reply for the request", pf.name()),
				"every request must be answered; reply, reject, or drop the directive")
		}
	}
	return diags
}

// WireReg checks that every concrete type handed to the wire layer —
// fabric Ctx.Send, the runtime's rtnode.Link.Send, an shm lane's
// (*shmfab.SendLane).Send, (*wire.Encoder).Any, wire.Marshal, or a parameter a
// summary says flows there — has a wire.Register codec somewhere in the
// analyzed packages. An unregistered payload panics only when a run
// crosses a real network fabric; this catches it before any run. The
// registration may live in any analyzed package, so run samlint over the
// whole program (./...) for an authoritative answer; payloads typed as
// interfaces with no summary trail are out of reach and stay unchecked.
var WireReg = &Analyzer{
	Name: "wirereg",
	Doc:  "every type sent on the fabric needs a wire.Register codec",
	run:  runWireReg,
}

func runWireReg(p *Pass) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	type missing struct {
		key string
		pos token.Pos
	}
	found := make(map[string]token.Pos)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, e := range prog.wirePayloads(p, call) {
				tv, ok := p.Pkg.Info.Types[e]
				if !ok || tv.Type == nil {
					continue
				}
				t := types.Default(tv.Type)
				if types.IsInterface(t) {
					continue // checked at call sites via wireParams summaries
				}
				if _, isTP := t.(*types.TypeParam); isTP {
					continue
				}
				k := typeKey(t)
				if _, ok := prog.registered[k]; ok {
					continue
				}
				if old, dup := found[k]; !dup || e.Pos() < old {
					found[k] = e.Pos()
				}
			}
			return true
		})
	}
	var miss []missing
	for k, pos := range found {
		miss = append(miss, missing{key: k, pos: pos})
	}
	sort.Slice(miss, func(i, j int) bool { return miss[i].key < miss[j].key })
	var diags []Diagnostic
	for _, m := range miss {
		diags = append(diags, Diagnostic{
			Pos:      p.Pkg.Fset.Position(m.pos),
			Analyzer: "wirereg",
			Message:  fmt.Sprintf("%s is sent on the fabric but has no wire.Register codec; a run on a real network fabric would panic encoding it", m.key),
			Hint:     "register the type in an init() with wire.Register, next to its definition",
		})
	}
	return diags
}

// pkgFuncs returns this package's summarized functions in deterministic
// key order.
func (prog *Program) pkgFuncs(p *Pass) []*progFunc {
	var keys []string
	for k, pf := range prog.funcs {
		if pf.pass == p {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*progFunc, len(keys))
	for i, k := range keys {
		out[i] = prog.funcs[k]
	}
	return out
}
