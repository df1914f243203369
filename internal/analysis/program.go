package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// program.go is the interprocedural summary engine. A Program holds every
// root package of one samlint invocation and a bottom-up summary for each
// function declaration: which borrow obligations the function opens on its
// caller's behalf (wrappers), which it closes, whether it may block,
// whether it replies to a request parameter, whether a parameter flows to
// the wire layer, and whether a Ctx parameter escapes the call. The flow
// analysis (flow.go) and the analyzers consult these summaries at call
// sites, so the protocol checks follow helpers soundly instead of
// trusting textual conventions.
//
// Functions are keyed by the string "pkgPath|recvTypeName|funcName":
// root packages are type-checked independently against a signature-only
// dependency universe, so types.Object identity does NOT hold across
// packages — string keys do. Interface methods have no declaration and
// resolve to no summary (calls through them are treated as non-blocking
// and summary-free; the SAM runtime API itself is classified directly by
// samcalls.go, which is what matters in practice).

const (
	fabricPkgPath = "samsys/internal/fabric"
	wirePkgPath   = "samsys/internal/wire"
	shmfabPkgPath = "samsys/internal/fabric/shmfab"
	rtnodePkgPath = "samsys/internal/fabric/rtnode"
)

// Program is the whole-invocation view over a set of root packages.
type Program struct {
	Pkgs   []*Package
	passes map[*Package]*Pass
	funcs  map[string]*progFunc

	// ignores is the union of every package's //samlint:ignore
	// directives; summaries consult it so a justified suppression in a
	// helper also heals the deficiency its callers would inherit.
	ignores ignoreSet

	// registered maps the type key of every wire.Register[T] instantiation
	// in the root set to its registration site.
	registered map[string]token.Pos

	// reqTypes holds the type keys of request types named by
	// //samlint:replyonce roots; reply summaries are computed for every
	// function with a parameter of one of these types.
	reqTypes map[string]bool
}

// progFunc is one function declaration plus its directives and summary.
type progFunc struct {
	key  string
	pass *Pass
	decl *ast.FuncDecl
	sum  *Summary

	nonblocking bool // //samlint:nonblocking: handlerblock root, trusted at call sites
	replyOnce   bool // //samlint:replyonce: must reply exactly once on every path
	replyPrim   bool // //samlint:reply: one call mentioning the request = one reply
}

// name renders the function for diagnostics ("Server.exec").
func (pf *progFunc) name() string {
	parts := strings.SplitN(pf.key, "|", 3)
	if parts[1] != "" {
		return parts[1] + "." + parts[2]
	}
	return parts[2]
}

// Summary is the caller-visible behavior of one function.
type Summary struct {
	mayBlock  bool
	blockDesc string
	blockPos  token.Pos

	opens  *openSummary   // borrow opened and returned to the caller
	closes []closeSummary // net closes performed on every path

	replies    map[int]*replyInfo // request param index -> reply bounds
	wireParams map[int]bool       // params that flow to a fabric send/encode
	ctxEscapes map[int]token.Pos  // Ctx params retained beyond the call
}

// openSummary describes the borrow a wrapper opens and hands back.
type openSummary struct {
	kind borrowKind
	tmpl []tmplPart
}

// closeSummary describes one net close a helper performs for its caller:
// it closes whatever borrow the handle argument at parameter index
// handleIdx holds (the Release half of a handle wrapper).
type closeSummary struct {
	pub       bool
	handleIdx int
}

// replyInfo bounds how many replies the function sends for the request
// passed at one parameter index, over all paths (after suppression
// healing).
type replyInfo struct {
	min, max int
}

// NewProgram builds passes and directives for the given root packages and
// solves the summary fixpoint. All packages must share one FileSet (they
// do when loaded by one Loader).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:       pkgs,
		passes:     make(map[*Package]*Pass),
		funcs:      make(map[string]*progFunc),
		ignores:    make(ignoreSet),
		registered: make(map[string]token.Pos),
		reqTypes:   make(map[string]bool),
	}
	for _, pkg := range pkgs {
		pass := &Pass{Pkg: pkg, Prog: prog}
		prog.passes[pkg] = pass
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				// init functions repeat per file and are uncallable.
				if decl.Recv == nil && decl.Name.Name == "init" {
					continue
				}
				pf := &progFunc{key: declKey(pkg, decl), pass: pass, decl: decl}
				parseDirectives(pf)
				prog.funcs[pf.key] = pf
			}
		}
		for file, lines := range collectIgnores(pkg) {
			dst := prog.ignores[file]
			if dst == nil {
				dst = make(map[int][]ignoreDirective)
				prog.ignores[file] = dst
			}
			for line, dirs := range lines {
				dst[line] = append(dst[line], dirs...)
			}
		}
		prog.collectRegistered(pkg)
	}
	prog.collectReqTypes()
	prog.solve()
	return prog
}

// parseDirectives reads //samlint: function directives from the doc
// comment.
func parseDirectives(pf *progFunc) {
	if pf.decl.Doc == nil {
		return
	}
	for _, c := range pf.decl.Doc.List {
		switch strings.TrimSpace(c.Text) {
		case "//samlint:nonblocking":
			pf.nonblocking = true
		case "//samlint:replyonce":
			pf.replyOnce = true
		case "//samlint:reply":
			pf.replyPrim = true
		}
	}
}

// declKey builds the cross-package function key from a declaration.
func declKey(pkg *Package, decl *ast.FuncDecl) string {
	recv := ""
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		t := decl.Recv.List[0].Type
	unwrap:
		for {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
			case *ast.ParenExpr:
				t = x.X
			case *ast.IndexExpr:
				t = x.X
			case *ast.IndexListExpr:
				t = x.X
			default:
				break unwrap
			}
		}
		if id, ok := t.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return pkg.Path + "|" + recv + "|" + decl.Name.Name
}

// funcKeyOf builds the same key from a resolved function object.
func funcKeyOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return pkg + "|" + recv + "|" + fn.Name()
}

// calleeOf resolves a call to the summarized function it statically
// targets, or nil (built-ins, function values, interface dispatch,
// functions outside the root set).
func (prog *Program) calleeOf(p *Pass, call *ast.CallExpr) *progFunc {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = p.Pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[f]; ok {
			obj = sel.Obj()
		} else {
			obj = p.Pkg.Info.Uses[f.Sel]
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return prog.funcs[funcKeyOf(fn)]
}

// pathQualifier renders package-qualified type names with full import
// paths, the program-wide stable spelling string keys rely on.
func pathQualifier(p *types.Package) string { return p.Path() }

func typeKey(t types.Type) string { return types.TypeString(t, pathQualifier) }

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamedType reports whether t (after deref) is the named type
// path.name.
func isNamedType(t types.Type, path, name string) bool {
	n, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// collectRegistered records every wire.Register[T] instantiation of the
// package via the type checker's instance map.
func (prog *Program) collectRegistered(pkg *Package) {
	for id, inst := range pkg.Info.Instances {
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != wirePkgPath || fn.Name() != "Register" {
			continue
		}
		if inst.TypeArgs == nil || inst.TypeArgs.Len() == 0 {
			continue
		}
		k := typeKey(inst.TypeArgs.At(0))
		if old, ok := prog.registered[k]; !ok || id.Pos() < old {
			prog.registered[k] = id.Pos()
		}
	}
}

// collectReqTypes finds the request type of every //samlint:replyonce
// root: its first parameter whose (dereferenced) named type is called
// "Req".
func (prog *Program) collectReqTypes() {
	for _, pf := range prog.funcs {
		if !pf.replyOnce {
			continue
		}
		for _, obj := range declParamObjs(pf.pass, pf.decl) {
			if obj == nil {
				continue
			}
			if n, ok := derefType(obj.Type()).(*types.Named); ok && n.Obj().Name() == "Req" {
				prog.reqTypes[typeKey(derefType(obj.Type()))] = true
				break
			}
		}
	}
}

// suppressedAt reports whether a //samlint:ignore directive for the
// analyzer covers the position.
func (prog *Program) suppressedAt(p *Pass, pos token.Pos, analyzer string) bool {
	position := p.Pkg.Fset.Position(pos)
	for _, dir := range prog.ignores[position.Filename][position.Line] {
		if dir.analyzers == nil || dir.analyzers[analyzer] {
			return true
		}
	}
	return false
}

// declParams maps parameter objects to their summary indices: the
// receiver is -1, parameters count from 0.
func declParams(p *Pass, decl *ast.FuncDecl) map[types.Object]int {
	m := make(map[types.Object]int)
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if obj := p.Pkg.Info.Defs[decl.Recv.List[0].Names[0]]; obj != nil {
			m[obj] = -1
		}
	}
	idx := 0
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, nm := range f.Names {
				if obj := p.Pkg.Info.Defs[nm]; obj != nil {
					m[obj] = idx
				}
				idx++
			}
		}
	}
	return m
}

// declParamObjs returns the parameter objects in signature order
// (receiver excluded); unnamed parameters contribute nil entries.
func declParamObjs(p *Pass, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return nil
	}
	for _, f := range decl.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, nm := range f.Names {
			out = append(out, p.Pkg.Info.Defs[nm])
		}
	}
	return out
}

// --- the fixpoint ---

// solve recomputes every summary bottom-up until nothing changes.
// Summaries only grow along the call graph, so the round count is
// bounded by helper nesting depth; the cap is a safety net.
func (prog *Program) solve() {
	keys := make([]string, 0, len(prog.funcs))
	for k := range prog.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for round := 0; round < 6; round++ {
		changed := false
		for _, k := range keys {
			pf := prog.funcs[k]
			ns := prog.computeSummary(pf)
			if sumKey(ns) != sumKey(pf.sum) {
				changed = true
			}
			pf.sum = ns
		}
		if !changed {
			break
		}
	}
}

// sumKey serializes the semantic content of a summary for change
// detection (diagnostic strings excluded: they stabilize one round after
// the semantics do and never feed back into them).
func sumKey(s *Summary) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if s.mayBlock {
		b.WriteString("B")
	}
	if s.opens != nil {
		fmt.Fprintf(&b, "|o%d,%s", s.opens.kind, tmplString(s.opens.tmpl))
	}
	for _, c := range s.closes {
		fmt.Fprintf(&b, "|c%t,h%d", c.pub, c.handleIdx)
	}
	for _, idx := range sortedKeys(s.replies) {
		fmt.Fprintf(&b, "|r%d:%d-%d", idx, s.replies[idx].min, s.replies[idx].max)
	}
	for _, idx := range sortedBoolKeys(s.wireParams) {
		fmt.Fprintf(&b, "|w%d", idx)
	}
	for _, idx := range sortedKeys(s.ctxEscapes) {
		fmt.Fprintf(&b, "|x%d", idx)
	}
	return b.String()
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedBoolKeys(m map[int]bool) []int {
	return sortedKeys(m)
}

// computeSummary derives one function's summary from its body and the
// current summaries of its callees.
func (prog *Program) computeSummary(pf *progFunc) *Summary {
	sum := &Summary{}
	p := pf.pass
	if bls := prog.blockersIn(p, pf.decl.Body); len(bls) > 0 {
		sum.mayBlock = true
		sum.blockDesc = bls[0].desc
		sum.blockPos = bls[0].pos
	}
	prog.borrowScan(pf, sum)
	if len(prog.reqTypes) > 0 {
		for idx, obj := range declParamObjs(p, pf.decl) {
			if obj == nil || !prog.reqTypes[typeKey(derefType(obj.Type()))] {
				continue
			}
			min, max := prog.replyCheck(pf, obj, nil)
			if max > 0 {
				if sum.replies == nil {
					sum.replies = make(map[int]*replyInfo)
				}
				sum.replies[idx] = &replyInfo{min: min, max: max}
			}
		}
	}
	sum.wireParams = prog.wireParamScan(pf)
	sum.ctxEscapes = prog.ctxEscapeScan(pf)
	return sum
}

// --- may-block ---

// blocker is one operation that can park the calling process.
type blocker struct {
	pos  token.Pos
	desc string
}

// blockersIn scans a body (excluding nested function literals and spawned
// goroutines, which run on other stacks) for operations that may block:
// blocking SAM primitives, channel operations, selects without a default,
// the standard sync waits, fabric Event.Wait, and calls to summarized
// functions that may block. Calls through interfaces or function values
// are unresolvable and treated as non-blocking; the SAM API itself is
// classified directly, which covers the blocking surface the paper's
// model cares about.
func (prog *Program) blockersIn(p *Pass, body ast.Node) []blocker {
	var out []blocker
	add := func(pos token.Pos, desc string) {
		out = append(out, blocker{pos: pos, desc: desc})
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				// The goroutine may block elsewhere; its arguments are
				// evaluated here.
				for _, a := range x.Call.Args {
					walk(a)
				}
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					add(x.Pos(), "channel receive")
				}
			case *ast.SendStmt:
				add(x.Arrow, "channel send")
			case *ast.SelectStmt:
				// The select itself blocks only without a default; its comm
				// operations never block individually, so walk around them:
				// their operand expressions and the clause bodies only.
				hasDefault := false
				for _, cl := range x.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					add(x.Pos(), "select without a default case")
				}
				for _, cl := range x.Body.List {
					cc, ok := cl.(*ast.CommClause)
					if !ok {
						continue
					}
					switch comm := cc.Comm.(type) {
					case *ast.SendStmt:
						walk(comm.Chan)
						walk(comm.Value)
					case *ast.ExprStmt:
						if ue, ok := comm.X.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
							walk(ue.X)
						}
					case *ast.AssignStmt:
						for _, r := range comm.Rhs {
							if ue, ok := r.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
								walk(ue.X)
							}
						}
					}
					for _, s := range cc.Body {
						walk(s)
					}
				}
				return false
			case *ast.RangeStmt:
				if tv, ok := p.Pkg.Info.Types[x.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						add(x.Pos(), "range over a channel")
					}
				}
			case *ast.CallExpr:
				prog.callBlocker(p, x, add)
			}
			return true
		})
	}
	walk(body)
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// callBlocker classifies one call's blocking behavior.
func (prog *Program) callBlocker(p *Pass, call *ast.CallExpr, add func(token.Pos, string)) {
	op := p.samCall(call)
	if op != opNone {
		if op.blocksHandler() {
			add(call.Pos(), opName[op])
		}
		// The runtime API's classification is authoritative; do not
		// consult the runtime's own internals.
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok &&
				pn.Imported().Path() == "time" && sel.Sel.Name == "Sleep" {
				add(call.Pos(), "time.Sleep")
				return
			}
		}
		if sel.Sel.Name == "Wait" {
			if tv, ok := p.Pkg.Info.Types[sel.X]; ok && tv.Type != nil {
				switch {
				case typeKey(derefType(tv.Type)) == "sync.WaitGroup":
					add(call.Pos(), "sync.WaitGroup.Wait")
					return
				case typeKey(derefType(tv.Type)) == "sync.Cond":
					add(call.Pos(), "sync.Cond.Wait")
					return
				case isNamedType(tv.Type, fabricPkgPath, "Event"):
					add(call.Pos(), "fabric Event.Wait")
					return
				}
			}
		}
	}
	if pf := prog.calleeOf(p, call); pf != nil && pf.sum != nil &&
		pf.sum.mayBlock && !pf.nonblocking {
		add(call.Pos(), "call to "+pf.name()+", which may block: "+pf.sum.blockDesc)
	}
}

// --- borrow opener/closer summaries ---

// borrowScan runs the flow analysis with exit collection and extracts the
// wrapper summaries: a borrow opened on every path, must-open at every
// return, returned to the caller, and nameable from the parameters alone
// becomes the opener; a handle parameter closed on every path becomes a
// closer.
func (prog *Program) borrowScan(pf *progFunc, sum *Summary) {
	p := pf.pass
	fa := &flowAnalysis{
		p:            p,
		insts:        make(map[*ast.CallExpr]*inst),
		pubs:         make(map[*ast.CallExpr]*pubFact),
		diags:        make(map[string][]Diagnostic),
		collectExits: true,
	}
	fa.run(funcUnit{name: pf.decl.Name.Name, body: pf.decl.Body}, false)
	if len(fa.exits) == 0 {
		return
	}
	paramIdx := declParams(p, pf.decl)
	for obj, pub := range fa.exits[0].mclosed {
		inAll := true
		for _, e := range fa.exits[1:] {
			if _, ok := e.mclosed[obj]; !ok {
				inAll = false
				break
			}
		}
		// A handle close on a parameter: the summary carries the
		// parameter position.
		if idx, ok := paramIdx[obj]; inAll && ok && idx >= 0 {
			sum.closes = append(sum.closes, closeSummary{pub: pub, handleIdx: idx})
		}
	}
	sort.Slice(sum.closes, func(i, j int) bool {
		return sum.closes[i].handleIdx < sum.closes[j].handleIdx
	})
	var open *inst
	for _, e := range fa.exits {
		if !e.ret || len(e.open) != 1 {
			return
		}
		var i *inst
		for x := range e.open {
			i = x
		}
		if !e.mopen[i] || !e.returned[i] {
			return
		}
		if open == nil {
			open = i
		} else if open != i {
			return
		}
	}
	if open == nil {
		return
	}
	if tmpl, ok := templateOf(open.parts, paramIdx); ok {
		sum.opens = &openSummary{kind: open.kind, tmpl: tmpl}
	}
}

// --- wire flow ---

// wirePayloads returns the payload expressions call hands to the wire
// layer: fabric Ctx.Send, the node runtime's rtnode.Link.Send (the hop
// from a Ctx.Send to whichever transport the link table names),
// (*shmfab.SendLane).Send (an shm lane encodes its payload with the same
// wire registry the TCP path uses, so an unregistered type panics there
// just as surely), (*wire.Encoder).Any,
// wire.Marshal, and arguments flowing into a summarized callee's
// wire-bound parameters.
func (prog *Program) wirePayloads(p *Pass, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Send":
			if tv, ok := p.Pkg.Info.Types[sel.X]; ok && tv.Type != nil {
				switch {
				case len(call.Args) == 3 && isNamedType(tv.Type, fabricPkgPath, "Ctx"):
					out = append(out, call.Args[2])
				case len(call.Args) == 3 && isNamedType(tv.Type, shmfabPkgPath, "SendLane"),
					len(call.Args) == 2 && isNamedType(tv.Type, rtnodePkgPath, "Link"):
					out = append(out, call.Args[1])
				}
			}
		case "Any":
			if tv, ok := p.Pkg.Info.Types[sel.X]; ok && tv.Type != nil &&
				isNamedType(tv.Type, wirePkgPath, "Encoder") && len(call.Args) == 1 {
				out = append(out, call.Args[0])
			}
		case "Marshal":
			if fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == wirePkgPath && len(call.Args) == 1 {
				out = append(out, call.Args[0])
			}
		}
	}
	if pf := prog.calleeOf(p, call); pf != nil && pf.sum != nil {
		for _, idx := range sortedBoolKeys(pf.sum.wireParams) {
			if idx < len(call.Args) {
				out = append(out, call.Args[idx])
			}
		}
	}
	return out
}

// wireParamScan marks interface-typed parameters whose values reach the
// wire layer, so the concrete types are checked at this function's call
// sites (where they are still visible).
func (prog *Program) wireParamScan(pf *progFunc) map[int]bool {
	p := pf.pass
	paramIdx := make(map[types.Object]int)
	for idx, obj := range declParamObjs(p, pf.decl) {
		if obj != nil && types.IsInterface(obj.Type()) {
			paramIdx[obj] = idx
		}
	}
	if len(paramIdx) == 0 {
		return nil
	}
	var out map[int]bool
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, e := range prog.wirePayloads(p, call) {
			if obj := p.usedIdent(e); obj != nil {
				if idx, ok := paramIdx[obj]; ok {
					if out == nil {
						out = make(map[int]bool)
					}
					out[idx] = true
				}
			}
		}
		return true
	})
	return out
}

// --- Ctx escape summaries ---

// ctxEscapeScan records which Ctx-typed parameters the function retains
// beyond the call: stored into a field, global, or composite literal,
// handed to a goroutine, or passed on to a callee that retains them.
// Capture by an asynchronous-operation callback is not an escape (the
// callback stays in the owning process's handler context; handlerblock
// polices what may run there). Escapes covered by a local
// //samlint:ignore ctxleak directive are healed: the function has taken
// justified responsibility, so callers are not flagged.
func (prog *Program) ctxEscapeScan(pf *progFunc) map[int]token.Pos {
	p := pf.pass
	ctxIdx := make(map[types.Object]int)
	for idx, obj := range declParamObjs(p, pf.decl) {
		if obj != nil && isCtxType(obj.Type()) {
			ctxIdx[obj] = idx
		}
	}
	if len(ctxIdx) == 0 {
		return nil
	}
	var esc map[int]token.Pos
	record := func(obj types.Object, pos token.Pos) {
		if obj == nil {
			return
		}
		idx, ok := ctxIdx[obj]
		if !ok || prog.suppressedAt(p, pos, "ctxleak") {
			return
		}
		if esc == nil {
			esc = make(map[int]token.Pos)
		}
		if old, dup := esc[idx]; !dup || pos < old {
			esc[idx] = pos
		}
	}
	captures := func(fl *ast.FuncLit) {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[id]
			if obj == nil || obj.Pos() >= fl.Pos() && obj.Pos() < fl.End() {
				return true
			}
			record(obj, id.Pos())
			return true
		})
	}
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				obj := p.usedIdent(n.Rhs[i])
				if obj == nil {
					continue
				}
				if _, isCtx := ctxIdx[obj]; !isCtx {
					continue
				}
				t := p.resolveTarget(n.Lhs[i])
				if t.field || t.global {
					record(obj, n.Rhs[i].Pos())
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				record(p.usedIdent(v), v.Pos())
			}
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				record(p.usedIdent(a), a.Pos())
			}
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				captures(fl)
			}
		case *ast.CallExpr:
			if pf2 := prog.calleeOf(p, n); pf2 != nil && pf2.sum != nil {
				for _, idx := range sortedKeys(pf2.sum.ctxEscapes) {
					if idx < len(n.Args) {
						record(p.usedIdent(n.Args[idx]), n.Args[idx].Pos())
					}
				}
			}
		}
		return true
	})
	return esc
}
