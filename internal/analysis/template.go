package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// template.go canonicalizes name expressions into sequences of keyParts:
// literal text interleaved with references to local variables. The
// rendered sequence is the key publications of a name are compared by.
// The same representation doubles as the borrow-name template of an
// interprocedural summary: parts whose variables are all parameters of
// the summarized function can be re-instantiated with the argument
// expressions of any call site, so a borrow opened as `c.UseValue(n)`
// inside a helper surfaces at the caller under the caller's own spelling
// of the name.

// keyPart is one piece of a canonicalized name expression.
type keyPart struct {
	lit string       // literal text, when obj is nil
	obj types.Object // a local-variable reference otherwise
}

// partsOf renders e as keyParts. Identifiers bound to local variables
// (parameters included) become object references; everything else —
// constants, selectors of package names, struct fields — contributes
// literal text. Unhandled expression forms fall back to types.ExprString
// as a single literal, which loses inner variable references but keeps
// textual matching intact.
func (p *Pass) partsOf(e ast.Expr) []keyPart {
	var parts []keyPart
	p.appendParts(&parts, e)
	return parts
}

func (p *Pass) appendParts(parts *[]keyPart, e ast.Expr) {
	lit := func(s string) { *parts = append(*parts, keyPart{lit: s}) }
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		if v, ok := p.Pkg.Info.Uses[x].(*types.Var); ok && !v.IsField() &&
			v.Parent() != nil && v.Parent().Parent() != types.Universe {
			*parts = append(*parts, keyPart{obj: v})
			return
		}
		lit(x.Name)
	case *ast.ParenExpr:
		p.appendParts(parts, x.X)
	case *ast.BasicLit:
		lit(x.Value)
	case *ast.SelectorExpr:
		p.appendParts(parts, x.X)
		lit("." + x.Sel.Name)
	case *ast.CallExpr:
		p.appendParts(parts, x.Fun)
		lit("(")
		for i, a := range x.Args {
			if i > 0 {
				lit(", ")
			}
			p.appendParts(parts, a)
		}
		lit(")")
	case *ast.IndexExpr:
		p.appendParts(parts, x.X)
		lit("[")
		p.appendParts(parts, x.Index)
		lit("]")
	case *ast.BinaryExpr:
		p.appendParts(parts, x.X)
		lit(" " + x.Op.String() + " ")
		p.appendParts(parts, x.Y)
	case *ast.UnaryExpr:
		lit(x.Op.String())
		p.appendParts(parts, x.X)
	case *ast.StarExpr:
		lit("*")
		p.appendParts(parts, x.X)
	default:
		lit(types.ExprString(e))
	}
}

// renderParts produces the comparison key of a part sequence.
func renderParts(parts []keyPart) string {
	var b strings.Builder
	for _, p := range parts {
		if p.obj == nil {
			b.WriteString(p.lit)
		} else {
			b.WriteString(p.obj.Name())
		}
	}
	return b.String()
}

// tmplPart is one piece of a summary's name template: literal text or a
// parameter index (-1 for the receiver).
type tmplPart struct {
	lit string
	idx int
}

const tmplNone = -2

// templateOf abstracts a part sequence over the summarized function's
// parameters. It fails when the sequence references a variable that is
// not a parameter (the name depends on helper-local state, so callers
// cannot re-instantiate it).
func templateOf(parts []keyPart, paramIdx map[types.Object]int) ([]tmplPart, bool) {
	out := make([]tmplPart, 0, len(parts))
	for _, p := range parts {
		if p.obj == nil {
			out = append(out, tmplPart{lit: p.lit, idx: tmplNone})
			continue
		}
		idx, ok := paramIdx[p.obj]
		if !ok {
			return nil, false
		}
		out = append(out, tmplPart{idx: idx})
	}
	return out, true
}

// tmplString renders a template for summary-change detection and
// diagnostics, with parameters shown as $<idx>.
func tmplString(tmpl []tmplPart) string {
	var b strings.Builder
	for _, t := range tmpl {
		if t.idx == tmplNone {
			b.WriteString(t.lit)
		} else {
			fmt.Fprintf(&b, "$%d", t.idx)
		}
	}
	return b.String()
}

// instantiate substitutes call-site argument parts into a template.
// argParts returns the part sequence of the argument at a parameter
// index (-1 for the method receiver) or nil when the call site has no
// such argument, which aborts the instantiation.
func instantiate(tmpl []tmplPart, argParts func(idx int) []keyPart) ([]keyPart, bool) {
	var out []keyPart
	for _, t := range tmpl {
		if t.idx == tmplNone {
			out = append(out, keyPart{lit: t.lit})
			continue
		}
		sub := argParts(t.idx)
		if sub == nil {
			return nil, false
		}
		out = append(out, sub...)
	}
	return out, true
}
