package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotxorRule flags byte-indexed XOR loops in the attack's hot-path
// packages. PR 1 replaced every per-byte `a[i] ^= b[i]` with the word-level
// bitutil kernels (XORWords / XORBlock64 / XORBlock16), which move eight
// bytes per operation; a byte loop reintroduced into these packages silently
// gives back the ~10x descramble speedup.
type hotxorRule struct{}

func (hotxorRule) ID() string { return "hotxor" }

func (hotxorRule) Doc() string {
	return "byte-indexed XOR loops in hot-path packages must use the bitutil word kernels (PR 1 contract)"
}

// hotxorPackages are the packages whose XOR traffic is hot-path by design.
// The format subsystem is included: its probers run once per descrambled
// block inside the attack's single pass, so a byte-XOR loop there costs
// exactly what one in internal/core would.
var hotxorPackages = map[string]bool{
	"internal/scramble":        true,
	"internal/core":            true,
	"internal/engine":          true,
	"internal/aes":             true,
	"internal/chacha":          true,
	"internal/dram":            true,
	"internal/format":          true,
	"internal/format/chacha20": true,
	"internal/format/luks2":    true,
}

func (r hotxorRule) Check(m *Module, p *Package) []Finding {
	if !hotxorPackages[p.RelPath] {
		return nil
	}
	info := p.Info
	var out []Finding
	report := func(pos token.Pos) {
		out = append(out, Finding{
			Pos:  m.Fset.Position(pos),
			Rule: r.ID(),
			Msg:  "byte-indexed XOR loop; use bitutil.XORWords/XORBlock64/XORBlock16 (word-level kernel contract, PR 1)",
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			vars := loopVars(info, n.(ast.Stmt))
			if len(vars) == 0 {
				return true
			}
			for _, stmt := range body.List {
				as, ok := stmt.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					continue
				}
				lhs, rhs := as.Lhs[0], as.Rhs[0]
				if !isLoopByteIndex(info, lhs, vars) {
					continue
				}
				switch as.Tok {
				case token.XOR_ASSIGN: // a[i] ^= b[i]
					if isLoopByteIndex(info, rhs, vars) {
						report(as.Pos())
					}
				case token.ASSIGN, token.DEFINE: // a[i] = b[i] ^ c[i]
					if xorOfLoopIndexes(info, rhs, vars) {
						report(as.Pos())
					}
				}
			}
			return true
		})
	}
	return out
}

// isLoopByteIndex reports whether e is an index into a byte slice/array
// whose index expression involves a loop variable.
func isLoopByteIndex(info *types.Info, e ast.Expr, vars map[types.Object]bool) bool {
	ie, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if !isByteSliceOrArray(info, ie.X) {
		return false
	}
	return mentionsIdentObj(info, ie.Index, vars)
}

// xorOfLoopIndexes reports whether e is a ^ chain in which at least two
// operands are loop-indexed byte loads (the memcpy-with-xor shape).
func xorOfLoopIndexes(info *types.Info, e ast.Expr, vars map[types.Object]bool) bool {
	n := 0
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		e = ast.Unparen(e)
		if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.XOR {
			walk(be.X)
			walk(be.Y)
			return
		}
		if isLoopByteIndex(info, e, vars) {
			n++
		}
	}
	if be, ok := ast.Unparen(e).(*ast.BinaryExpr); !ok || be.Op != token.XOR {
		return false
	}
	walk(e)
	return n >= 2
}
