package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxthreadRule enforces PR 2's cancellation contract: exported functions
// in the attack-pipeline packages whose call graph reaches a loop over dump
// blocks must accept a context.Context, and a function that was handed a
// context must not manufacture its own with context.Background() or
// context.TODO(). There is no compat-wrapper exemption: an exported
// function without a context that merely forwards context.Background() to a
// context-taking sibling is a finding like any other.
type ctxthreadRule struct{}

func (ctxthreadRule) ID() string { return "ctxthread" }

func (ctxthreadRule) Doc() string {
	return "exported dump-scanning APIs must thread context.Context and not call context.Background() (PR 2 contract)"
}

// ctxthreadPackages are the packages holding long-running exported attack
// APIs. internal/service is included for its handler-rooted paths: an HTTP
// handler that reaches a dump-block loop must scan under the request's
// context (r.Context()), not a manufactured one.
// The format subsystem is included so that an exported whole-image scan
// entry point added there must be cancellable too.
// The fleet is included: Coordinator.Run and Worker.Run drive whole
// campaigns across machines and must stay cancellable end to end.
var ctxthreadPackages = map[string]bool{
	"":                         true, // module root (coldboot)
	"internal/core":            true,
	"internal/service":         true,
	"internal/fleet":           true,
	"internal/format":          true,
	"internal/format/chacha20": true,
	"internal/format/luks2":    true,
}

func (r ctxthreadRule) Check(m *Module, p *Package) []Finding {
	if !ctxthreadPackages[p.RelPath] {
		return nil
	}
	g := m.graph()
	info := p.Info
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil || !g.reaches[fn] {
				continue
			}
			if !hasContextParam(fn) {
				if hasRequestParam(fn) {
					// Handler-rooted path: the *http.Request carries the
					// caller's context (r.Context()), so the signature is
					// fine — but the body must actually scan under it.
					if pos, found := callsBackgroundContext(info, fd.Body); found {
						out = append(out, Finding{
							Pos:  m.Fset.Position(pos),
							Rule: r.ID(),
							Msg:  fn.Name() + " handles an *http.Request whose r.Context() carries cancellation, but manufactures context.Background()/TODO() for a dump-block scan",
						})
					}
					continue
				}
				out = append(out, Finding{
					Pos:  m.Fset.Position(fd.Name.Pos()),
					Rule: r.ID(),
					Msg:  "exported " + fn.Name() + " reaches a dump-block scan but takes no context.Context (cancellation contract, PR 2)",
				})
				continue
			}
			if pos, found := callsBackgroundContext(info, fd.Body); found {
				out = append(out, Finding{
					Pos:  m.Fset.Position(pos),
					Rule: r.ID(),
					Msg:  fn.Name() + " takes a context.Context but manufactures its own with context.Background()/TODO()",
				})
			}
		}
	}
	return out
}

// hasContextParam reports whether any parameter of fn is context.Context.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasRequestParam reports whether any parameter of fn is *net/http.Request
// — the handler shape, whose request carries the caller's context.
func hasRequestParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ptr, ok := sig.Params().At(i).Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callsBackgroundContext finds a context.Background()/TODO() call in body.
func callsBackgroundContext(info *types.Info, body *ast.BlockStmt) (pos token.Pos, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			pos, found = call.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}
