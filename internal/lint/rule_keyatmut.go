package lint

import (
	"go/ast"
	"go/types"
)

// keyatmutRule enforces the read-only contract on Scrambler.KeyAt results.
// PR 1 made scramble.None.KeyAt return a shared zero block and documented
// every KeyAt result as read-only; a write through one corrupts state
// shared across goroutines.
//
// The check is a forward intra-function taint pass: values produced by a
// KeyAt call (and slices/fields derived from them) must not appear as the
// target of an assignment, ++/--, or copy destination.
type keyatmutRule struct{}

func (keyatmutRule) ID() string { return "keyatmut" }

func (keyatmutRule) Doc() string {
	return "KeyAt results are read-only shared state and must not be written through"
}

func (r keyatmutRule) Check(m *Module, p *Package) []Finding {
	info := p.Info
	var out []Finding
	report := func(n ast.Node, what string) {
		out = append(out, Finding{
			Pos:  m.Fset.Position(n.Pos()),
			Rule: r.ID(),
			Msg:  "write through " + what + " result (documented read-only; copy it first)",
		})
	}

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tainted := make(map[types.Object]string) // var -> source func name

			// taintSource reports whether e is (or derives from) a call to
			// KeyAt or a tainted variable.
			var taintSource func(e ast.Expr) string
			taintSource = func(e ast.Expr) string {
				switch e := ast.Unparen(e).(type) {
				case *ast.CallExpr:
					if fn := staticCallee(info, e); fn != nil && readOnlyProducer(fn) {
						return fn.Name()
					}
				case *ast.Ident:
					if obj := info.Uses[e]; obj != nil {
						return tainted[obj]
					}
				case *ast.IndexExpr:
					return taintSource(e.X)
				case *ast.SliceExpr:
					return taintSource(e.X)
				case *ast.SelectorExpr:
					return taintSource(e.X)
				case *ast.StarExpr:
					return taintSource(e.X)
				}
				return ""
			}

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					// Writes through tainted targets. A plain identifier on
					// the LHS is a rebind, not a write through the value.
					for _, lhs := range n.Lhs {
						if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
							continue
						}
						if src := taintSource(lhs); src != "" {
							report(n, src)
						}
					}
					// Taint propagation / clearing for identifier targets.
					for i, lhs := range n.Lhs {
						id, ok := ast.Unparen(lhs).(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj == nil {
							continue
						}
						src := ""
						if len(n.Rhs) == len(n.Lhs) {
							src = taintSource(n.Rhs[i])
						} else if len(n.Rhs) == 1 {
							src = taintSource(n.Rhs[0])
						}
						if src != "" {
							tainted[obj] = src
						} else {
							delete(tainted, obj)
						}
					}
				case *ast.IncDecStmt:
					if src := taintSource(n.X); src != "" {
						report(n, src)
					}
				case *ast.CallExpr:
					// copy(dst, ...) and append into a tainted backing array.
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) >= 1 {
						if b, isB := info.Uses[id].(*types.Builtin); isB && (b.Name() == "copy" || b.Name() == "append") {
							if src := taintSource(n.Args[0]); src != "" {
								report(n, src)
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// readOnlyProducer reports whether fn's results carry the read-only
// contract: any method named KeyAt.
func readOnlyProducer(fn *types.Func) bool { return fn.Name() == "KeyAt" }
