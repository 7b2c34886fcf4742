package lint

import (
	"go/ast"
	"go/types"
)

// allocloopRule guards the zero-alloc hot loops: inside a dump-block loop
// in the scan packages (core's hunt workers and verification walks), a
// make() or an append onto a fresh composite literal allocates once per
// block — millions of times per gigabyte — where the pooled and stack
// buffers must be reused instead.
//
// The rule also covers per-candidate verify/repair retry loops in the core
// package: any loop that re-invokes one of the hunt's verification kernels
// (xorDistance, predictAndCompare, scheduleScore, scheduleMismatch, the
// repairer's chunkMismatch — directly or through helpers like try) runs
// once per candidate master times the repair search fan-out, so
// allocations there multiply just as badly as in the block loops.
// Accumulator appends (out = append(out, x)) are fine; a rare-path
// allocation that is genuinely wanted takes an ignore directive.
type allocloopRule struct{}

func (allocloopRule) ID() string { return "allocloop" }

func (allocloopRule) Doc() string {
	return "no make()/fresh-literal append inside per-block hot loops or per-candidate verify retry loops (pooled-buffer contract, PR 1)"
}

// allocloopPackages are the packages whose block loops are the attack's
// per-block hot path. The daemon layers (jobs, service) are included: any
// dump-block loop that grows there (result post-processing, upload
// validation) is on the serving hot path just as much as the scan itself.
// The format subsystem's scanners are included: ProbeBlock
// implementations promise an allocation-free no-hit path. The distribution layers (wal, fleet)
// are included: the coordinator and workers sit between the scheduler and
// the scan kernels, so a per-block allocation there taxes every shard of
// every campaign.
var allocloopPackages = map[string]bool{
	"internal/core":            true,
	"internal/jobs":            true,
	"internal/service":         true,
	"internal/wal":             true,
	"internal/fleet":           true,
	"internal/format":          true,
	"internal/format/chacha20": true,
	"internal/format/luks2":    true,
}

// verifyKernelPackage scopes the retry-loop extension to the package that
// owns the verification kernels.
const verifyKernelPackage = "internal/core"

// verifyKernelNames are the per-candidate scoring kernels of the hunt. A
// loop whose body calls a function reaching one of these re-verifies per
// iteration: that is the repair/refine retry shape, and its buffers must
// come from the worker's scratch.
var verifyKernelNames = map[string]bool{
	"xorDistance":       true,
	"predictAndCompare": true,
	"scheduleScore":     true,
	"scheduleMismatch":  true,
	"chunkMismatch":     true,
}

func (r allocloopRule) Check(m *Module, p *Package) []Finding {
	if !allocloopPackages[p.RelPath] {
		return nil
	}
	g := m.graph()
	info := p.Info
	var out []Finding
	seen := make(map[ast.Node]bool)
	for fn, loops := range g.blockLoops {
		if fn.Pkg() == nil || fn.Pkg() != p.Types {
			continue
		}
		for _, loop := range loops {
			out = append(out, r.allocsIn(m, info, loop, seen,
				"make() inside a per-block hot loop; hoist the buffer out of the loop or use the worker's pooled buffer (PR 1)",
				"append onto a fresh literal inside a per-block hot loop allocates every block; reuse a buffer (PR 1)")...)
		}
	}
	for _, loop := range r.verifyRetryLoops(m, p) {
		out = append(out, r.allocsIn(m, info, loop, seen,
			"make() inside a per-candidate verify/repair retry loop; expand into the worker's scratch buffers instead (pooled-scratch contract)",
			"append onto a fresh literal inside a per-candidate verify/repair retry loop allocates per candidate; reuse the worker's scratch (pooled-scratch contract)")...)
	}
	return out
}

// allocsIn reports make() calls and fresh-literal appends under loop,
// deduplicating against seen (a node flagged under one loop nesting is not
// re-reported under another).
func (r allocloopRule) allocsIn(m *Module, info *types.Info, loop ast.Node, seen map[ast.Node]bool, makeMsg, appendMsg string) []Finding {
	var out []Finding
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || seen[call] {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		b, ok := info.Uses[id].(*types.Builtin)
		if !ok {
			return true
		}
		switch b.Name() {
		case "make":
			seen[call] = true
			out = append(out, Finding{
				Pos:  m.Fset.Position(call.Pos()),
				Rule: r.ID(),
				Msg:  makeMsg,
			})
		case "append":
			if len(call.Args) == 0 {
				return true
			}
			if _, isLit := ast.Unparen(call.Args[0]).(*ast.CompositeLit); isLit {
				seen[call] = true
				out = append(out, Finding{
					Pos:  m.Fset.Position(call.Pos()),
					Rule: r.ID(),
					Msg:  appendMsg,
				})
			}
		}
		return true
	})
	return out
}

// verifyRetryLoops returns every for/range statement in p whose own body
// calls a verification-kernel-reaching function. Nested function literals
// and nested loops are their own execution contexts and are skipped when
// attributing the kernel call: a buffer hoisted out of an inner retry loop
// into its enclosing loop is exactly the sanctioned fix, so only the
// innermost loop around the call is the retry loop.
func (r allocloopRule) verifyRetryLoops(m *Module, p *Package) []ast.Stmt {
	if p.RelPath != verifyKernelPackage {
		return nil
	}
	g := m.graph()
	reach := kernelReach(g, p)
	if len(reach) == 0 {
		return nil
	}
	var loops []ast.Stmt
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch l := n.(type) {
				case *ast.ForStmt:
					body = l.Body
				case *ast.RangeStmt:
					body = l.Body
				default:
					return true
				}
				if directlyCallsReaching(p.Info, body, reach) {
					loops = append(loops, n.(ast.Stmt))
				}
				return true
			})
		}
	}
	return loops
}

// kernelReach marks the functions whose call graph reaches a verification
// kernel at per-candidate granularity. Propagation stops at functions that
// contain a dump-block loop themselves (the hunt workers, whole-attack
// stages): a loop around one of those is shard- or campaign-grained — its
// allocations amortize over a full scan — not a candidate retry.
func kernelReach(g *callGraph, p *Package) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	scope := p.Types.Scope()
	for name := range verifyKernelNames {
		if fn, ok := scope.Lookup(name).(*types.Func); ok {
			reach[fn] = true
			queue = append(queue, fn)
		}
	}
	callers := make(map[*types.Func][]*types.Func)
	for caller, callees := range g.calls {
		for callee := range callees {
			callers[callee] = append(callers[callee], caller)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range callers[fn] {
			if reach[caller] {
				continue
			}
			if _, coarse := g.blockLoop[caller]; coarse {
				continue
			}
			reach[caller] = true
			queue = append(queue, caller)
		}
	}
	return reach
}

// directlyCallsReaching reports whether the loop body calls a
// kernel-reaching function in its own execution context — skipping nested
// function literals and nested loops, which are attributed separately.
func directlyCallsReaching(info *types.Info, body *ast.BlockStmt, reach map[*types.Func]bool) bool {
	noIfaces := func(*types.Interface, string) []*types.Func { return nil }
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			return false
		case *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			for _, callee := range resolveCallees(info, n, noIfaces) {
				if reach[callee] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
