package analysis

import (
	"go/ast"
	"go/types"
)

// samcalls.go recognizes calls to the SAM runtime API: method calls on
// *core.Ctx (equivalently the sam.Ctx alias). Classification is by
// method name plus receiver type identity, so helper methods with
// coincidental names elsewhere are never matched.

// ctxPkgPath is the package that defines the runtime's Ctx type.
const ctxPkgPath = "samsys/internal/core"

type samOp int

const (
	opNone samOp = iota

	// Whole-item operations.
	opCreateValue    // CreateValue(name, item, uses): publish in one step
	opCreateAccum    // CreateAccum(name, item)
	opDestroyValue   // DestroyValue(name): retires the published name
	opConvertToAccum // ConvertValueToAccum(name): retires the value phase
	opDoneValue      // DoneValue(name, k)
	opPushValue      // PushValue(name, dst)

	// Blocking non-borrow operations.
	opBarrier  // Barrier()
	opNextTask // NextTask()

	// Asynchronous-callback operations (callbacks run in handler
	// context, where using a Ctx is illegal).
	opFetchValueAsync // FetchValueAsync(name, cb)
	opAcquireAsync    // AcquireAccumAsync(name, cb)
	opChaoticAsync    // FetchChaoticAsync(name, cb)
	opRenameAsync     // RenameValueAsync(old, new, uses, cb)
	opSpawnTask       // SpawnTask(dst, task, size)
	opSpawnWhenValues // SpawnTaskWhenValues(task, names...)

	// External-request serving (blocking entry points of the serve loop).
	opNextExternal  // NextExternal()
	opServeExternal // ServeExternal()

	// Borrow openers (methods on Ctx returning a handle). All but
	// opCreateRef may block.
	opUseRef     // UseValue(name) -> ValueRef
	opUpdateRef  // UpdateAccum(name) -> AccumRef
	opChaoticRef // ReadChaotic(name) -> ChaoticRef
	opCreateRef  // BeginCreateValue(name, item, uses) -> CreateRef
	opRenameRef  // BeginRenameValue(old, new, uses) -> CreateRef; borrows under new

	// Typed package-level accessors (core.Use / sam.Use, ...). The Ctx
	// is argument 0, so the name argument shifts right by one.
	opTypedUse           // Use[T](c, name) -> (T, ValueRef)
	opTypedUpdate        // Update[T](c, name) -> (T, AccumRef)
	opTypedChaotic       // ReadChaotic[T](c, name) -> (T, ChaoticRef)
	opTypedCreate        // Create[T](c, name, item, uses): publish in one step
	opTypedCreateInPlace // CreateInPlace[T](c, name, item, uses) -> (T, CreateRef)
	opTypedRename        // Rename[T](c, old, new, uses) -> (T, CreateRef); borrows under new

	// Handle closers (methods on the ref types). The borrow they close
	// is identified by the receiver, not by a name argument.
	opRefRelease       // ValueRef/ChaoticRef.Release()
	opRefCommit        // AccumRef.Commit()
	opRefCommitToValue // AccumRef.CommitToValue(uses); publishes
	opRefPublish       // CreateRef.Publish(); publishes
)

var samOpByName = map[string]samOp{
	"BeginCreateValue":    opCreateRef,
	"BeginRenameValue":    opRenameRef,
	"CreateValue":         opCreateValue,
	"CreateAccum":         opCreateAccum,
	"DestroyValue":        opDestroyValue,
	"ConvertValueToAccum": opConvertToAccum,
	"DoneValue":           opDoneValue,
	"PushValue":           opPushValue,
	"Barrier":             opBarrier,
	"NextTask":            opNextTask,
	"FetchValueAsync":     opFetchValueAsync,
	"AcquireAccumAsync":   opAcquireAsync,
	"FetchChaoticAsync":   opChaoticAsync,
	"RenameValueAsync":    opRenameAsync,
	"SpawnTask":           opSpawnTask,
	"SpawnTaskWhenValues": opSpawnWhenValues,
	"NextExternal":        opNextExternal,
	"ServeExternal":       opServeExternal,
	"UseValue":            opUseRef,
	"UpdateAccum":         opUpdateRef,
	"ReadChaotic":         opChaoticRef,
}

// samPkgPath is the public facade re-exporting the typed accessors.
const samPkgPath = "samsys"

// typedOpByName classifies package-level calls qualified with the core
// or sam package (`core.Use[T](c, n)`, `sam.Update[T](c, n)`, ...).
var typedOpByName = map[string]samOp{
	"Use":           opTypedUse,
	"Update":        opTypedUpdate,
	"ReadChaotic":   opTypedChaotic,
	"Create":        opTypedCreate,
	"CreateInPlace": opTypedCreateInPlace,
	"Rename":        opTypedRename,
}

// refCloserByName classifies method calls on the borrow handle types.
var refCloserByName = map[string]samOp{
	"Release":       opRefRelease,
	"Commit":        opRefCommit,
	"CommitToValue": opRefCommitToValue,
	"Publish":       opRefPublish,
}

// opName gives the API name back for diagnostics.
var opName = map[samOp]string{
	opBarrier:       "Barrier",
	opNextTask:      "NextTask",
	opNextExternal:  "NextExternal",
	opServeExternal: "ServeExternal",

	opFetchValueAsync: "FetchValueAsync",
	opAcquireAsync:    "AcquireAccumAsync",
	opChaoticAsync:    "FetchChaoticAsync",
	opRenameAsync:     "RenameValueAsync",

	opUseRef:             "UseValue",
	opUpdateRef:          "UpdateAccum",
	opChaoticRef:         "ReadChaotic",
	opCreateRef:          "BeginCreateValue",
	opRenameRef:          "BeginRenameValue",
	opTypedUse:           "Use",
	opTypedUpdate:        "Update",
	opTypedChaotic:       "ReadChaotic",
	opTypedCreateInPlace: "CreateInPlace",
	opTypedRename:        "Rename",
	opRefRelease:         "Release",
	opRefCommit:          "Commit",
	opRefCommitToValue:   "CommitToValue",
	opRefPublish:         "Publish",
}

// blocking reports whether the operation can suspend the calling
// process: these are the calls that are unsafe while holding an
// accumulator (paper section 3.2).
func (op samOp) blocking() bool {
	switch op {
	case opBarrier, opNextTask, opNextExternal, opServeExternal,
		opUseRef, opUpdateRef, opRenameRef,
		opTypedUse, opTypedUpdate, opTypedRename:
		return true
	}
	return false
}

// blocksHandler reports whether op may suspend a serving context. It is
// blocking() plus the chaotic reads: a stale chaotic snapshot parks the
// caller until a fresh one arrives (accum.go readChaotic), which is
// tolerable for an application process but never for a handler or an
// async callback.
func (op samOp) blocksHandler() bool {
	if op.blocking() {
		return true
	}
	switch op {
	case opChaoticRef, opTypedChaotic:
		return true
	}
	return false
}

// asyncCallbackArg returns the index of the handler-context callback
// argument of an asynchronous operation, or -1.
func asyncCallbackArg(op samOp) int {
	switch op {
	case opFetchValueAsync, opAcquireAsync, opChaoticAsync:
		return 1
	case opRenameAsync:
		return 3
	}
	return -1
}

// isCtxType reports whether t is core.Ctx or *core.Ctx.
func isCtxType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			n, ok = p.Elem().(*types.Named)
			if !ok {
				return false
			}
		} else {
			return false
		}
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == ctxPkgPath && obj.Name() == "Ctx"
}

// isRefType reports whether t is one of the borrow handle types.
func isRefType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != ctxPkgPath {
		return false
	}
	switch obj.Name() {
	case "ValueRef", "AccumRef", "ChaoticRef", "CreateRef":
		return true
	}
	return false
}

// samCall classifies call. It returns opNone when call is not a SAM
// runtime call: a method on Ctx, a method on a borrow handle, or a
// typed package-level accessor (whose Fun is an index expression when
// the type argument is explicit).
func (p *Pass) samCall(call *ast.CallExpr) samOp {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return opNone
	}
	// Package-qualified typed accessor: core.Use[T](c, n) / sam.Use[T](c, n).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
			if path := pn.Imported().Path(); path == ctxPkgPath || path == samPkgPath {
				if op, ok := typedOpByName[sel.Sel.Name]; ok {
					return op
				}
			}
			return opNone
		}
	}
	tv, ok := p.Pkg.Info.Types[sel.X]
	if !ok {
		return opNone
	}
	if isCtxType(tv.Type) {
		if op, ok := samOpByName[sel.Sel.Name]; ok {
			return op
		}
		return opNone
	}
	if isRefType(tv.Type) {
		if op, ok := refCloserByName[sel.Sel.Name]; ok {
			return op
		}
	}
	return opNone
}

// nameArg returns the Name argument that identifies the shared item the
// operation acts on (for a rename, the new name it borrows under), or
// nil when the operation has none.
func nameArg(op samOp, call *ast.CallExpr) ast.Expr {
	var idx int
	switch op {
	case opRenameRef:
		idx = 1
	case opTypedUse, opTypedUpdate, opTypedChaotic, opTypedCreate, opTypedCreateInPlace:
		idx = 1 // argument 0 is the Ctx
	case opTypedRename:
		idx = 2 // (c, old, new, uses); borrows under new
	case opBarrier, opNextTask, opSpawnTask, opSpawnWhenValues,
		opRefRelease, opRefCommit, opRefCommitToValue, opRefPublish:
		return nil
	default:
		idx = 0
	}
	if idx >= len(call.Args) {
		return nil
	}
	return call.Args[idx]
}

// freeVars collects the local variables (including parameters and
// captured outer variables) a name expression depends on. Reassigning
// any of them changes which shared item the expression denotes.
func (p *Pass) freeVars(e ast.Expr) map[types.Object]bool {
	if e == nil {
		return nil
	}
	vars := make(map[types.Object]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := p.Pkg.Info.Uses[id].(*types.Var); ok && !v.IsField() {
			// Package-level variables are excluded: tracking their
			// reassignment across functions is out of scope.
			if v.Parent() != nil && v.Parent().Parent() != types.Universe {
				vars[v] = true
			}
		}
		return true
	})
	return vars
}

// unwrap strips parentheses and type assertions: the form borrowed items
// are almost always consumed through (`x := ref.Item().(T)`).
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return e
		}
	}
}

// usedIdent resolves e (after unwrapping) to the object of a plain
// identifier use, or nil.
func (p *Pass) usedIdent(e ast.Expr) types.Object {
	if id, ok := unwrap(e).(*ast.Ident); ok {
		return p.Pkg.Info.Uses[id]
	}
	return nil
}
