package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// flow.go is the shared dataflow computation behind the protocol
// analyzers (pairdiscipline, borrowescape, singleassign, holdblock).
// Each function body is analyzed independently: a forward may-analysis
// over the CFG tracks which borrows are open, which create borrows have
// been published, which value names have been published, and which local
// variables hold borrow results. Borrow instances are identified by
// opener call site and closed through their handle; the name expression
// is kept only as the key publications are compared by (singleassign)
// and for diagnostics.

type borrowKind int

const (
	kindCreate borrowKind = iota
	kindUse
	kindAccum
	kindChaotic
)

func beginKind(op samOp) borrowKind {
	switch op {
	case opCreateRef, opRenameRef, opTypedCreateInPlace, opTypedRename:
		return kindCreate
	case opUseRef, opTypedUse:
		return kindUse
	case opUpdateRef, opTypedUpdate:
		return kindAccum
	}
	return kindChaotic
}

// closerName names the handle method that ends borrow i, for diagnostics.
func closerName(i *inst) string {
	switch i.kind {
	case kindCreate:
		return "Publish"
	case kindAccum:
		return "Commit"
	}
	return "Release"
}

// inst is one borrow instance: an opener call site, or a call to a
// helper whose interprocedural summary opens a borrow on the caller's
// behalf (op is opNone and label names the helper).
type inst struct {
	op    samOp
	kind  borrowKind
	key   string    // canonicalized name expression
	parts []keyPart // the key's part sequence, for summary extraction
	pos   token.Pos
	free  map[types.Object]bool // locals the key depends on
	label string                // helper name for summary-opened borrows
}

// display names the opener for diagnostics.
func (i *inst) display() string {
	if i.label != "" {
		return i.label
	}
	return opName[i.op]
}

// pubFact records one publication (Publish, CommitToValue or CreateValue)
// of a value name.
type pubFact struct {
	pos  token.Pos
	free map[types.Object]bool
}

// flowState is the per-program-point fact set. open/done/pub/vars are
// may-facts (unioned at joins); mopen/mclosed are must-facts (intersected
// at joins): an open/closed obligation only survives a join when it holds
// on every incoming path.
type flowState struct {
	open map[*inst]bool               // borrows possibly open here
	done map[*inst]bool               // create borrows already published
	pub  map[string]map[*pubFact]bool // value names already published
	vars map[types.Object]map[*inst]bool

	mopen map[*inst]bool // borrows open on EVERY path here
	// mclosed holds the handle variables closed on every path with no
	// local opener — the closing half of a handle wrapper
	// (ipgPut(ref) { ref.Release() }); facts on parameters become the
	// function's closer summary. The value records a publishing close.
	mclosed map[types.Object]bool
}

func newFlowState() *flowState {
	return &flowState{
		open:    make(map[*inst]bool),
		done:    make(map[*inst]bool),
		pub:     make(map[string]map[*pubFact]bool),
		vars:    make(map[types.Object]map[*inst]bool),
		mopen:   make(map[*inst]bool),
		mclosed: make(map[types.Object]bool),
	}
}

func (st *flowState) clone() *flowState {
	c := newFlowState()
	for k := range st.open {
		c.open[k] = true
	}
	for k := range st.done {
		c.done[k] = true
	}
	for key, set := range st.pub {
		m := make(map[*pubFact]bool, len(set))
		for f := range set {
			m[f] = true
		}
		c.pub[key] = m
	}
	for obj, set := range st.vars {
		m := make(map[*inst]bool, len(set))
		for i := range set {
			m[i] = true
		}
		c.vars[obj] = m
	}
	for k := range st.mopen {
		c.mopen[k] = true
	}
	for k, pub := range st.mclosed {
		c.mclosed[k] = pub
	}
	return c
}

// mergeFrom joins other into st and reports whether st changed:
// may-facts are unioned, must-facts intersected.
func (st *flowState) mergeFrom(other *flowState) bool {
	changed := false
	for k := range other.open {
		if !st.open[k] {
			st.open[k] = true
			changed = true
		}
	}
	for k := range other.done {
		if !st.done[k] {
			st.done[k] = true
			changed = true
		}
	}
	for key, set := range other.pub {
		dst := st.pub[key]
		if dst == nil {
			dst = make(map[*pubFact]bool)
			st.pub[key] = dst
		}
		for f := range set {
			if !dst[f] {
				dst[f] = true
				changed = true
			}
		}
	}
	for obj, set := range other.vars {
		dst := st.vars[obj]
		if dst == nil {
			dst = make(map[*inst]bool)
			st.vars[obj] = dst
		}
		for i := range set {
			if !dst[i] {
				dst[i] = true
				changed = true
			}
		}
	}
	for k := range st.mopen {
		if !other.mopen[k] {
			delete(st.mopen, k)
			changed = true
		}
	}
	for k := range st.mclosed {
		if _, ok := other.mclosed[k]; !ok {
			delete(st.mclosed, k)
			changed = true
		}
	}
	return changed
}

// protoResult caches the protocol analyzers' shared findings per Pass.
type protoResult struct {
	diags map[string][]Diagnostic
}

// protocol runs the shared dataflow over every function unit once.
func (p *Pass) protocol() *protoResult {
	if p.proto != nil {
		return p.proto
	}
	res := &protoResult{diags: make(map[string][]Diagnostic)}
	seen := make(map[string]bool)
	for _, u := range p.funcUnits() {
		fa := &flowAnalysis{
			p:     p,
			insts: make(map[*ast.CallExpr]*inst),
			pubs:  make(map[*ast.CallExpr]*pubFact),
			diags: make(map[string][]Diagnostic),
		}
		fa.run(u, true)
		for name, ds := range fa.diags {
			for _, d := range ds {
				k := fmt.Sprintf("%s|%s:%d:%d|%s", name, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
				if !seen[k] {
					seen[k] = true
					res.diags[name] = append(res.diags[name], d)
				}
			}
		}
	}
	p.proto = res
	return res
}

type flowAnalysis struct {
	p     *Pass
	g     *funcCFG
	insts map[*ast.CallExpr]*inst
	pubs  map[*ast.CallExpr]*pubFact
	emit  bool
	diags map[string][]Diagnostic

	// collectExits makes atExit record the per-exit state instead of (or
	// in addition to) reporting; the summary engine extracts a function's
	// opener/closer summary from these records.
	collectExits bool
	exits        []exitRec
}

// exitRec is the flow state at one function exit after deferred closes,
// plus which borrows the exit's return statement hands to the caller.
type exitRec struct {
	ret      bool
	pos      token.Pos
	open     map[*inst]bool
	mopen    map[*inst]bool
	mclosed  map[types.Object]bool
	returned map[*inst]bool
}

// run solves the dataflow, then replays for reporting (when report is
// true) and exit collection.
func (fa *flowAnalysis) run(u funcUnit, report bool) {
	fa.g = fa.p.buildCFG(u.body)
	in := make(map[*cfgBlock]*flowState)
	in[fa.g.entry] = newFlowState()
	work := []*cfgBlock{fa.g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[b].clone()
		for _, n := range b.nodes {
			fa.transferNode(out, n)
		}
		for _, s := range b.succs {
			if in[s] == nil {
				in[s] = out.clone()
				work = append(work, s)
			} else if in[s].mergeFrom(out) {
				work = append(work, s)
			}
		}
	}
	// Replay pass: each reachable block once over its final in-state,
	// with diagnostics enabled and exits recorded.
	fa.emit = report
	for _, b := range fa.g.blocks {
		start := in[b]
		if start == nil {
			continue // unreachable
		}
		st := start.clone()
		for _, n := range b.nodes {
			fa.transferNode(st, n)
		}
		if b.exit {
			fa.atExit(st, b)
		}
	}
}

func (fa *flowAnalysis) line(pos token.Pos) int {
	return fa.p.Pkg.Fset.Position(pos).Line
}

func (fa *flowAnalysis) report(analyzer string, pos token.Pos, msg, hint string) {
	if !fa.emit {
		return
	}
	fa.diags[analyzer] = append(fa.diags[analyzer], Diagnostic{
		Pos:      fa.p.Pkg.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  msg,
		Hint:     hint,
	})
}

// --- transfer functions ---

func (fa *flowAnalysis) transferNode(st *flowState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fa.assign(st, n)
	case *ast.IncDecStmt:
		fa.calls(st, n.X)
		t := fa.p.resolveTarget(n.X)
		fa.checkWrite(st, t, n.X.Pos())
		if t.direct && t.obj != nil {
			fa.killFacts(st, t.obj)
			delete(st.vars, t.obj)
		}
	case *ast.RangeStmt:
		// Per-iteration reassignment of the loop variables.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			obj := fa.p.Pkg.Info.Defs[id]
			if obj == nil {
				obj = fa.p.Pkg.Info.Uses[id]
			}
			if obj != nil {
				fa.killFacts(st, obj)
				delete(st.vars, obj)
			}
		}
	case *ast.CaseClause:
		// In a type switch, each clause binds its own copy of the guard
		// variable (Info.Implicits): a fresh assignment every iteration
		// when the switch sits in a loop.
		if obj := fa.p.Pkg.Info.Implicits[n]; obj != nil {
			fa.killFacts(st, obj)
			delete(st.vars, obj)
		}
		for _, e := range n.List {
			fa.calls(st, e)
		}
	case *ast.SendStmt:
		fa.calls(st, n.Chan)
		fa.calls(st, n.Value)
		for _, i := range fa.heldInsts(st, n.Value) {
			fa.report("borrowescape", n.Value.Pos(),
				fmt.Sprintf("Item from %s(%s) sent on a channel; the receiver may use it after %s invalidates it",
					i.display(), i.key, closerName(i)),
				"copy the data into your own storage before sending")
		}
	case *ast.GoStmt:
		fa.calls(st, n.Call)
		fa.checkCapture(st, n.Call, "a spawned goroutine")
		for _, a := range n.Call.Args {
			for _, i := range fa.heldInsts(st, a) {
				fa.report("borrowescape", a.Pos(),
					fmt.Sprintf("Item from %s(%s) passed to a spawned goroutine, which may outlive the %s",
						i.display(), i.key, closerName(i)),
					"copy the data out, or have the goroutine borrow the item itself")
			}
		}
	case *ast.DeferStmt:
		for _, a := range n.Call.Args {
			fa.calls(st, a) // arguments are evaluated at the defer site
		}
	case *ast.ExprStmt:
		fa.calls(st, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			fa.calls(st, r)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				fa.calls(st, v)
			}
			if len(vs.Names) == len(vs.Values) {
				for i := range vs.Names {
					fa.bindOne(st, vs.Names[i], vs.Values[i])
				}
			}
		}
	default:
		fa.calls(st, n)
	}
}

func (fa *flowAnalysis) assign(st *flowState, a *ast.AssignStmt) {
	for _, r := range a.Rhs {
		fa.calls(st, r)
	}
	for _, l := range a.Lhs {
		fa.calls(st, l) // index/selector targets can contain calls
	}
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			fa.bindOne(st, a.Lhs[i], a.Rhs[i])
		}
		return
	}
	// Tuple form of the typed accessors: `v, ref := Use[T](c, n)` binds
	// both results — the item and the handle — to the same borrow.
	if len(a.Rhs) == 1 {
		if i := fa.beginInst(a.Rhs[0]); i != nil {
			for _, l := range a.Lhs {
				t := fa.p.resolveTarget(l)
				fa.checkWrite(st, t, l.Pos())
				if t.direct && t.obj != nil {
					fa.killFacts(st, t.obj)
					st.vars[t.obj] = map[*inst]bool{i: true}
				}
			}
			return
		}
	}
	for _, l := range a.Lhs {
		fa.bindOne(st, l, nil)
	}
}

// bindOne applies one lhs = rhs pair: escape and write-through checks,
// then rebinding/kill of the assigned variable.
func (fa *flowAnalysis) bindOne(st *flowState, lhs, rhs ast.Expr) {
	t := fa.p.resolveTarget(lhs)
	if rhs != nil && (t.field || t.global) {
		dest := "a struct field"
		if t.global {
			dest = "a package-level variable"
		}
		for _, i := range fa.heldInsts(st, rhs) {
			fa.report("borrowescape", rhs.Pos(),
				fmt.Sprintf("Item from %s(%s) stored into %s, which outlives the %s",
					i.display(), i.key, dest, closerName(i)),
				"the item is cache-owned and invalid after the borrow ends; copy the data instead")
		}
	}
	fa.checkWrite(st, t, lhs.Pos())
	if !t.direct || t.obj == nil {
		return
	}
	// Resolve the source's borrows before killing the target's own facts
	// (self-assignment edge).
	var src map[*inst]bool
	if rhs != nil {
		if i := fa.beginInst(rhs); i != nil {
			src = map[*inst]bool{i: true}
		} else if obj := fa.p.usedIdent(fa.p.borrowSource(rhs)); obj != nil {
			src = st.vars[obj]
		}
	}
	fa.killFacts(st, t.obj)
	delete(st.vars, t.obj)
	if len(src) > 0 {
		cp := make(map[*inst]bool, len(src))
		for i := range src {
			cp[i] = true
		}
		st.vars[t.obj] = cp
	}
}

// checkWrite flags writes through a read-only borrow or through a value
// item that has already been published.
func (fa *flowAnalysis) checkWrite(st *flowState, t writeTarget, pos token.Pos) {
	if t.direct || t.obj == nil {
		return
	}
	for i := range st.vars[t.obj] {
		if st.open[i] && (i.kind == kindUse || i.kind == kindChaotic) {
			fa.report("singleassign", pos,
				fmt.Sprintf("write through the read-only %s(%s) borrow", i.display(), i.key),
				"use/chaotic borrows are read-only; mutate through UpdateAccum instead")
		}
		if st.done[i] {
			fa.report("singleassign", pos,
				fmt.Sprintf("write to the item of %s after %s published it (values are single-assignment)",
					i.key, closerName(i)),
				"published values are immutable; create a new value or use BeginRenameValue")
		}
	}
}

// killFacts drops facts that depend on obj, which has been reassigned:
// published-name facts and done-create facts whose key mentions obj.
func (fa *flowAnalysis) killFacts(st *flowState, obj types.Object) {
	for key, set := range st.pub {
		for f := range set {
			if f.free[obj] {
				delete(set, f)
			}
		}
		if len(set) == 0 {
			delete(st.pub, key)
		}
	}
	for i := range st.done {
		if i.free[obj] {
			delete(st.done, i)
		}
	}
}

// heldInsts returns the open borrow instances e (an identifier, a direct
// opener call, or either one's Item()) evaluates to.
func (fa *flowAnalysis) heldInsts(st *flowState, e ast.Expr) []*inst {
	var out []*inst
	if i := fa.beginInst(e); i != nil && st.open[i] {
		out = append(out, i)
	}
	if obj := fa.p.usedIdent(fa.p.borrowSource(e)); obj != nil {
		for i := range st.vars[obj] {
			if st.open[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

// beginInst resolves e to the borrow instance of a direct opener call.
func (fa *flowAnalysis) beginInst(e ast.Expr) *inst {
	if c, ok := fa.p.borrowSource(e).(*ast.CallExpr); ok {
		return fa.insts[c]
	}
	return nil
}

// borrowSource strips parentheses, type assertions and a handle's own
// Item() accessor, so `ref.Item().(T)` resolves to ref and
// `c.UseValue(n).Item()` to the opener call.
func (p *Pass) borrowSource(e ast.Expr) ast.Expr {
	for {
		e = unwrap(e)
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return e
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Item" {
			return e
		}
		if tv, ok := p.Pkg.Info.Types[sel.X]; !ok || !isRefType(tv.Type) {
			return e
		}
		e = sel.X
	}
}

// calls applies every SAM runtime call inside n (not descending into
// function literals, which are separate analysis units) in evaluation
// order — inner calls before the calls that consume them, so a chained
// closer like c.UpdateAccum(n).CommitToValue(u) sees its receiver's
// borrow already open.
func (fa *flowAnalysis) calls(st *flowState, n ast.Node) {
	if n == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c, ok := top.(*ast.CallExpr); ok {
				fa.applyCall(st, c)
			}
			return true
		}
		// Function literals are separate analysis units with their own
		// CFG; defining one executes nothing, so their calls must not
		// leak into this unit's state (even when the literal is the
		// root expression, as in `f := func() {...}`).
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		stack = append(stack, x)
		return true
	})
}

func (fa *flowAnalysis) applyCall(st *flowState, call *ast.CallExpr) {
	op := fa.p.samCall(call)
	if op == opNone {
		// Not a runtime call: consult the interprocedural summary of the
		// callee, if any, so obligations opened, closed, or blocked on
		// inside helpers surface here.
		if prog := fa.p.Prog; prog != nil {
			if pf := prog.calleeOf(fa.p, call); pf != nil {
				fa.applySummary(st, call, pf)
			}
		}
		return
	}
	if op.blocking() {
		fa.holdCheck(st, call, opName[op], "")
	}
	switch op {
	case opUseRef, opUpdateRef, opChaoticRef, opCreateRef, opRenameRef,
		opTypedUse, opTypedUpdate, opTypedChaotic,
		opTypedCreateInPlace, opTypedRename:
		if op == opRenameRef && len(call.Args) > 0 {
			delete(st.pub, renderParts(fa.p.partsOf(call.Args[0]))) // the old name is retired
		}
		if op == opTypedRename && len(call.Args) > 1 {
			delete(st.pub, renderParts(fa.p.partsOf(call.Args[1])))
		}
		i := fa.instFor(call, op)
		st.open[i] = true
		st.mopen[i] = true
		delete(st.done, i)
	case opRefRelease, opRefCommit, opRefCommitToValue, opRefPublish:
		fa.closeRef(st, op, call)
	case opCreateValue, opTypedCreate:
		fa.publish(st, nameArg(op, call), call)
	case opDestroyValue, opConvertToAccum:
		delete(st.pub, renderParts(fa.p.partsOf(nameArg(op, call))))
	case opSpawnTask, opSpawnWhenValues:
		fa.checkCapture(st, call, "an asynchronous task")
	case opFetchValueAsync, opAcquireAsync, opChaoticAsync, opRenameAsync:
		fa.checkCapture(st, call, "a "+opName[op]+" callback")
	}
}

// holdCheck reports blocking (directly, or via a summarized helper when
// via is non-empty) while an accumulator borrow is open.
func (fa *flowAnalysis) holdCheck(st *flowState, call *ast.CallExpr, what, via string) {
	for i := range st.open {
		if i.kind != kindAccum {
			continue
		}
		detail := what
		if via != "" {
			detail = what + " (" + via + ")"
		}
		fa.report("holdblock", call.Pos(),
			fmt.Sprintf("%s may block while holding %s(%s) from line %d; a blocked holder can deadlock other updaters of the accumulator",
				detail, i.display(), i.key, fa.line(i.pos)),
			fmt.Sprintf("finish the accumulator with %s before any blocking operation", closerName(i)))
	}
}

// applySummary applies a summarized helper call: its net closes, its
// opened-and-returned borrow, and its may-block behavior.
func (fa *flowAnalysis) applySummary(st *flowState, call *ast.CallExpr, pf *progFunc) {
	sum := pf.sum
	if sum == nil {
		return
	}
	if sum.mayBlock && !pf.nonblocking {
		fa.holdCheck(st, call, "call to "+pf.name(), sum.blockDesc)
	}
	argParts := func(idx int) []keyPart {
		e := callArg(call, idx)
		if e == nil {
			return nil
		}
		return fa.p.partsOf(e)
	}
	for _, cs := range sum.closes {
		// The callee closes whatever borrow the handle argument at this
		// position holds — exactly closeRef, one call deeper.
		if arg := callArg(call, cs.handleIdx); arg != nil {
			fa.closeInsts(st, fa.heldInsts(st, arg), cs.pub, call)
		}
	}
	if sum.opens != nil {
		i := fa.insts[call]
		if i == nil {
			parts, ok := instantiate(sum.opens.tmpl, argParts)
			if !ok {
				return
			}
			i = &inst{
				op:    opNone,
				kind:  sum.opens.kind,
				key:   renderParts(parts),
				parts: parts,
				pos:   call.Pos(),
				free:  fa.summaryFree(call, sum.opens.tmpl),
				label: pf.name(),
			}
			fa.insts[call] = i
		}
		st.open[i] = true
		st.mopen[i] = true
		delete(st.done, i)
	}
}

// summaryFree computes the locals a summary-opened borrow's key depends
// on: the free variables of every call-site argument the template
// substitutes.
func (fa *flowAnalysis) summaryFree(call *ast.CallExpr, tmpl []tmplPart) map[types.Object]bool {
	free := make(map[types.Object]bool)
	seen := make(map[int]bool)
	for _, t := range tmpl {
		if t.idx == tmplNone || seen[t.idx] {
			continue
		}
		seen[t.idx] = true
		for obj := range fa.p.freeVars(callArg(call, t.idx)) {
			free[obj] = true
		}
	}
	return free
}

// callArg returns the call-site expression at a summary parameter index:
// -1 is the method receiver, n is the nth argument.
func callArg(call *ast.CallExpr, idx int) ast.Expr {
	if idx == -1 {
		fun := call.Fun
		switch ix := fun.(type) {
		case *ast.IndexExpr:
			fun = ix.X
		case *ast.IndexListExpr:
			fun = ix.X
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

func (fa *flowAnalysis) instFor(call *ast.CallExpr, op samOp) *inst {
	if i := fa.insts[call]; i != nil {
		return i
	}
	ne := nameArg(op, call)
	parts := fa.p.partsOf(ne)
	i := &inst{
		op:    op,
		kind:  beginKind(op),
		key:   renderParts(parts),
		parts: parts,
		pos:   call.Pos(),
		free:  fa.p.freeVars(ne),
	}
	fa.insts[call] = i
	return i
}

// closeInsts ends the given borrows: a closed create borrow is published
// (its item immutable from here), and pub marks a close that publishes
// the name, which is where a second publication is caught. One close
// publishes a name once, however many openers (one per branch) may have
// fed the handle.
func (fa *flowAnalysis) closeInsts(st *flowState, insts []*inst, pub bool, call *ast.CallExpr) {
	published := make(map[string]bool)
	for _, i := range insts {
		delete(st.open, i)
		delete(st.mopen, i)
		if i.kind == kindCreate {
			st.done[i] = true
		}
		if pub && !published[i.key] {
			published[i.key] = true
			fa.publishKey(st, i.key, i.free, call)
		}
	}
}

// closeRef closes the borrow(s) a handle closer's receiver holds:
// ref.Release(), ref.Commit(), ref.CommitToValue(uses), ref.Publish().
// The receiver — a ref variable or the opener call itself — identifies
// the borrow.
func (fa *flowAnalysis) closeRef(st *flowState, op samOp, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pub := op == opRefCommitToValue || op == opRefPublish
	insts := fa.heldInsts(st, sel.X)
	fa.closeInsts(st, insts, pub, call)
	if len(insts) > 0 {
		return
	}
	v, ok := fa.p.usedIdent(sel.X).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	for i := range st.vars[v] {
		if pub && st.done[i] { // Publish through a handle already published
			fa.publishKey(st, i.key, i.free, call)
		}
	}
	// A handle close with no local opener: the closing half of a handle
	// wrapper, recorded against the receiver variable.
	if _, seen := st.mclosed[v]; !seen {
		st.mclosed[v] = pub
	}
}

// publish records that the name ne is now a published value, flagging a
// second publication of the same name on the same path.
func (fa *flowAnalysis) publish(st *flowState, ne ast.Expr, call *ast.CallExpr) {
	fa.publishKey(st, renderParts(fa.p.partsOf(ne)), fa.p.freeVars(ne), call)
}

// publishKey is publish on a pre-canonicalized key (used by handle
// closers, whose name expression lives at the opener call site).
func (fa *flowAnalysis) publishKey(st *flowState, key string, free map[types.Object]bool, call *ast.CallExpr) {
	if key == "" {
		return
	}
	if len(st.pub[key]) > 0 {
		fa.report("singleassign", call.Pos(),
			fmt.Sprintf("%s is published twice on this path (values are single-assignment)", key),
			"a value name may be published once; use DestroyValue or BeginRenameValue to reuse it")
	}
	f := fa.pubs[call]
	if f == nil {
		f = &pubFact{pos: call.Pos(), free: free}
		fa.pubs[call] = f
	}
	if st.pub[key] == nil {
		st.pub[key] = make(map[*pubFact]bool)
	}
	st.pub[key][f] = true
}

// checkCapture flags function literals passed to call that capture a
// variable holding an open borrow.
func (fa *flowAnalysis) checkCapture(st *flowState, call *ast.CallExpr, what string) {
	var lits []*ast.FuncLit
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		lits = append(lits, fl)
	}
	for _, a := range call.Args {
		if fl, ok := unwrap(a).(*ast.FuncLit); ok {
			lits = append(lits, fl)
		}
	}
	for _, fl := range lits {
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := fa.p.Pkg.Info.Uses[id]
			if obj == nil || (obj.Pos() >= fl.Pos() && obj.Pos() < fl.End()) {
				return true
			}
			for i := range st.vars[obj] {
				if !st.open[i] {
					continue
				}
				fa.report("borrowescape", id.Pos(),
					fmt.Sprintf("Item from %s(%s) captured by a closure passed to %s; the closure may run after %s invalidates it",
						i.display(), i.key, what, closerName(i)),
					"copy the data out, or have the closure borrow the item itself")
			}
			return true
		})
	}
}

// atExit applies deferred closes, exempts borrows returned to the
// caller (the wrapper pattern), and flags everything still open.
func (fa *flowAnalysis) atExit(st *flowState, b *cfgBlock) {
	for _, d := range fa.g.defers {
		fa.applyDeferred(st, d)
	}
	returned := make(map[*inst]bool)
	if b.ret != nil {
		for _, r := range b.ret.Results {
			switch x := unwrap(r).(type) {
			case *ast.CallExpr:
				if i := fa.insts[x]; i != nil {
					returned[i] = true
				}
			case *ast.Ident:
				if obj := fa.p.Pkg.Info.Uses[x]; obj != nil {
					for i := range st.vars[obj] {
						returned[i] = true
					}
				}
			}
		}
	}
	if fa.collectExits {
		fa.exits = append(fa.exits, exitRec{
			ret:      b.ret != nil,
			pos:      b.exitPos,
			open:     st.open,
			mopen:    st.mopen,
			mclosed:  st.mclosed,
			returned: returned,
		})
	}
	where := "the end of the function"
	if b.ret != nil {
		where = fmt.Sprintf("the return at line %d", fa.line(b.exitPos))
	}
	for i := range st.open {
		if returned[i] {
			continue
		}
		end := closerName(i)
		fa.report("pairdiscipline", i.pos,
			fmt.Sprintf("the %s(%s) handle does not reach %s on the path to %s",
				i.display(), i.key, end, where),
			fmt.Sprintf("call the handle's %s before this path leaves the function", end))
	}
}

// applyDeferred applies the closes of one defer statement: either a
// directly deferred handle closer or closers inside a deferred literal.
func (fa *flowAnalysis) applyDeferred(st *flowState, d *ast.DeferStmt) {
	fa.deferredCall(st, d.Call)
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				fa.deferredCall(st, c)
			}
			return true
		})
	}
}

func (fa *flowAnalysis) deferredCall(st *flowState, call *ast.CallExpr) {
	switch op := fa.p.samCall(call); op {
	case opRefRelease, opRefCommit, opRefCommitToValue, opRefPublish:
		fa.closeRef(st, op, call)
	}
}

// writeTarget describes the destination of an assignment left-hand side.
type writeTarget struct {
	obj    types.Object
	direct bool // plain `v = ...`, no indirection
	field  bool // path crosses a struct field
	global bool // root is a package-level variable
}

// resolveTarget walks an assignment target down to its root variable.
func (p *Pass) resolveTarget(e ast.Expr) writeTarget {
	t := writeTarget{direct: true}
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := p.Pkg.Info.Defs[x]
			if obj == nil {
				obj = p.Pkg.Info.Uses[x]
			}
			t.obj = obj
			if v, ok := obj.(*types.Var); ok && v.Parent() != nil &&
				v.Parent().Parent() == types.Universe {
				t.global = true
			}
			return t
		case *ast.SelectorExpr:
			if sel, ok := p.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				t.field = true
				t.direct = false
				e = x.X
				continue
			}
			// Qualified reference to another package's variable.
			if obj, ok := p.Pkg.Info.Uses[x.Sel].(*types.Var); ok && !obj.IsField() {
				t.obj = obj
				t.global = true
				return t
			}
			return writeTarget{}
		case *ast.IndexExpr:
			t.direct = false
			e = x.X
		case *ast.StarExpr:
			t.direct = false
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			t.direct = false
			e = x.X
		default:
			return writeTarget{}
		}
	}
}
