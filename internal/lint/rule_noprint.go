package lint

import (
	"go/ast"
	"strings"
)

// noprintRule keeps the library packages silent and clock-free: PR 2 routed
// all pipeline instrumentation through internal/obs (tracers, spans,
// counters), so internal/* packages must not print to the process's streams
// (fmt.Print*) or log (log.*), and must not read the wall clock (time.Now)
// — timing is the tracer's job, and hidden clock reads make the simulation
// non-reproducible. Commands (cmd/*), examples, and the obs package itself
// are exempt.
type noprintRule struct{}

func (noprintRule) ID() string { return "noprint" }

func (noprintRule) Doc() string {
	return "internal packages must use internal/obs instead of fmt.Print*/log.*/time.Now (PR 2 contract)"
}

func (r noprintRule) Check(m *Module, p *Package) []Finding {
	if !strings.HasPrefix(p.RelPath, "internal/") || p.RelPath == "internal/obs" {
		return nil
	}
	info := p.Info
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var msg string
			switch fn.Pkg().Path() {
			case "fmt":
				if strings.HasPrefix(fn.Name(), "Print") {
					msg = "fmt." + fn.Name() + " in a library package (return the value or report through internal/obs)"
				}
			case "log":
				msg = "log." + fn.Name() + " in a library package (report through internal/obs)"
			case "time":
				if fn.Name() == "Now" {
					msg = "time.Now in a library package (timing belongs to internal/obs tracers)"
				}
			}
			if msg != "" {
				out = append(out, Finding{
					Pos:  m.Fset.Position(call.Pos()),
					Rule: r.ID(),
					Msg:  msg,
				})
			}
			return true
		})
	}
	return out
}
