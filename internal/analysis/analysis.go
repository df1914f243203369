// Package analysis statically checks SAM client code for protocol
// misuse: the usage discipline the paper's programming model demands
// but the Go compiler cannot see. Values are single-assignment and must
// be published before anyone reads them; accumulator access is mutually
// exclusive, so blocking while holding one can deadlock (paper section
// 3.2); and every borrow hands out storage owned by the per-node cache
// that becomes invalid when the borrow's handle is closed.
//
// The dynamic checker in internal/trace validates these invariants on
// the paths a run happens to take; this package catches misuse before
// any execution, including on paths no test exercises. See LINT.md at
// the repository root for the analyzer catalog and rule rationale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	Hint     string         `json:"hint,omitempty"`
	// Suppressed is set when a //samlint:ignore directive covers the
	// diagnostic; Reason echoes the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column,
		d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " (" + d.Hint + ")"
	}
	return s
}

// Analyzer is one named protocol check.
type Analyzer struct {
	Name string
	Doc  string
	run  func(p *Pass) []Diagnostic
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	PairDiscipline,
	BorrowEscape,
	SingleAssign,
	HoldBlock,
	CtxLeak,
	HandlerBlock,
	ReplyOnce,
	WireReg,
}

// Pass carries one package through the suite. The protocol analyzers
// share a single dataflow computation, cached here; Prog links back to
// the whole-program summary engine the pass runs under.
type Pass struct {
	Pkg   *Package
	Prog  *Program
	proto *protoResult
}

// Run applies the given analyzers to a single package, building a
// one-package Program for the summary engine. samlint itself builds one
// Program over every loaded package and uses RunPkg, so cross-package
// summaries and wire registrations are visible.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return NewProgram([]*Package{pkg}).RunPkg(pkg, analyzers)
}

// RunPkg applies the given analyzers to one package of the program,
// resolves //samlint:ignore suppressions, and returns all diagnostics
// sorted by position. Suppressed diagnostics are included with
// Suppressed set; callers decide whether to show them (samlint does
// under -v).
func (prog *Program) RunPkg(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	pass := prog.passes[pkg]
	if pass == nil {
		pass = &Pass{Pkg: pkg, Prog: prog}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.run(pass)...)
	}
	ig := collectIgnores(pkg)
	for i := range diags {
		if reason, ok := ig.match(diags[i]); ok {
			diags[i].Suppressed = true
			diags[i].Reason = reason
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// --- suppression directives ---

// ignoreRe matches "//samlint:ignore <analyzers> <reason>"; analyzers is
// a comma-separated list of analyzer names or "all".
var ignoreRe = regexp.MustCompile(`^//samlint:ignore\s+([a-z,]+)(?:\s+(.*))?$`)

type ignoreDirective struct {
	analyzers map[string]bool // nil means all
	reason    string
}

// ignoreSet maps (file, line) to the directives that cover it. A
// directive on its own line covers the next line; a trailing directive
// covers its own line.
type ignoreSet map[string]map[int][]ignoreDirective

func collectIgnores(pkg *Package) ignoreSet {
	ig := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				d := ignoreDirective{reason: strings.TrimSpace(m[2])}
				if m[1] != "all" {
					d.analyzers = make(map[string]bool)
					for _, name := range strings.Split(m[1], ",") {
						d.analyzers[name] = true
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ig[pos.Filename]
				if lines == nil {
					lines = make(map[int][]ignoreDirective)
					ig[pos.Filename] = lines
				}
				// Cover both the directive's own line (trailing comment)
				// and the next line (directive on the preceding line).
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return ig
}

func (ig ignoreSet) match(d Diagnostic) (string, bool) {
	for _, dir := range ig[d.Pos.Filename][d.Pos.Line] {
		if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
			return dir.reason, true
		}
	}
	return "", false
}

// --- shared helpers ---

// funcUnits returns every function body in the package as an independent
// analysis unit: top-level function declarations and each function
// literal. Borrows must be closed within the unit that opened them
// (except the wrapper pattern, see pairdiscipline).
type funcUnit struct {
	name string
	body *ast.BlockStmt
}

func (p *Pass) funcUnits() []funcUnit {
	var units []funcUnit
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					units = append(units, funcUnit{name: n.Name.Name, body: n.Body})
				}
			case *ast.FuncLit:
				units = append(units, funcUnit{name: "func literal", body: n.Body})
			}
			return true
		})
	}
	return units
}

// inspectShallow walks n in pre-order but does not descend into nested
// function literals: their bodies are separate analysis units.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return fn(x)
	})
}
