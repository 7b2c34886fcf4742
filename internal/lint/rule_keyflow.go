package lint

// keyflow: interprocedural secret-taint analysis (PR 8).
//
// The repo's entire purpose is to recover key material from memory dumps;
// the paper's threat model is that such bytes linger. keyflow enforces the
// repo-side contract: recovered masters, schedules, and scanner outputs
// (the *sources* below) must never be formatted, logged, written out, or
// converted to string (the *sinks*), unless laundered through a sanctioner
// (*sanitizers*: sha256 fingerprinting via internal/secret, or any call
// into internal/secret, whose package is opaque to this analysis).
//
// The analysis is a classic monotone taint propagation over the shared
// module call graph:
//
//   - Each function body is analyzed to a local fixpoint: assignments,
//     ranges, copy/append, sends, and composite literals grow a set of
//     tainted objects seeded from tainted parameters and the configured
//     source calls / secret struct fields.
//   - Taint flows DOWN into callees (argument position -> parameter) and
//     UP through return values, iterated over a worklist to a global
//     fixpoint. Receivers deliberately do not carry taint: the fan-out
//     through shared interfaces (obs.Tracer et al.) would drown the
//     analysis in false positives, and no secret in this repo flows
//     through a receiver.
//   - Findings are reported at the sink site, so every //lint:ignore
//     annotation sits next to the actual escape it excuses.
//
// Known, accepted imprecision: calls through function-typed variables and
// closures are not resolved (sinks inside function literal bodies still
// fire, because literals share the enclosing function's object space), and
// package-level variables are not tracked.
//
// One sink nuance: a []byte->string conversion used directly as a map
// INDEX READ (m[string(k)]) or as the key of builtin delete is exempt —
// the compiler does not retain that string — while a map STORE with a
// converted key retains it and is reported.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// keyflowSources maps producer functions (module-relative key) to a
// description of the key material they return. "...Into" sources also
// taint their first argument (the destination buffer).
var keyflowSources = map[string]string{
	"internal/aes.RecoverMasterKey":     "recovered AES master",
	"internal/aes.RecoverMasterKeyInto": "recovered AES master",
	"internal/aes.ExpandKey":            "expanded AES key schedule",
	"internal/aes.ExpandKeyInto":        "expanded AES key schedule",
	"internal/aes.ExpandKeyBytes":       "expanded AES key schedule",
	"internal/aes.ExpandKeyBytesInto":   "expanded AES key schedule",
	"internal/aes.ExtendForwardInto":    "expanded AES key schedule",
	"internal/aes.ExtendBackwardInto":   "expanded AES key schedule",
	"internal/secret.Bytes.Reveal":      "revealed secret bytes",
}

// keyflowFields marks struct fields that hold key material at rest; any
// read of these fields is a taint source.
var keyflowFields = map[string]string{
	"internal/core.FoundKey.Master":      "FoundKey master",
	"internal/core.huntScratch.master":   "hunt scratch master",
	"internal/core.repairScratch.master": "repair scratch master",
	"internal/core.repairScratch.best":   "repair scratch master",
	"internal/core.repairScratch.sched":  "repair scratch schedule",
	"internal/core.repairScratch.ref":    "repair scratch schedule",
	"internal/core.repairScratch.cand":   "repair scratch schedule",
	"internal/core.repairScratch.obs":    "repair observed schedule",
	"internal/core.verifyOutcome.final":  "memoized master",
	"internal/format.Finding.Key":        "format scanner key",
}

// keyflowSinks are external escape points beyond the blanket fmt/log and
// string-conversion sinks, keyed like keyflowSources.
var keyflowSinks = map[string]string{
	"os.WriteFile":                  "file write",
	"os.File.Write":                 "file write",
	"os.File.WriteString":           "file write",
	"os.File.WriteAt":               "file write",
	"encoding/json.Marshal":         "JSON marshal",
	"encoding/json.MarshalIndent":   "JSON marshal",
	"encoding/json.Encoder.Encode":  "JSON egress",
	"net/http.Error":                "HTTP error egress",
	"net/http.ResponseWriter.Write": "HTTP response egress",
	// Span attributes are telemetry: they ride the fleet wire
	// worker→coordinator and render in /metrics, event streams, and Chrome
	// traces. Keys appear there as sha256 fingerprints only. (obs.A itself
	// is a module function, so taint flows through it into these calls.)
	"internal/obs.Span.SetAttr":     "span attribute telemetry egress",
	"internal/obs.Span.Child":       "span attribute telemetry egress",
	"internal/obs.Tracer.StartSpan": "span attribute telemetry egress",
}

// keyflowPropagators are external functions whose result is a re-encoding
// of their arguments: taint flows through them (they are NOT sanitizers).
var keyflowPropagators = map[string]bool{
	"encoding/hex.EncodeToString":             true,
	"encoding/hex.AppendEncode":               true,
	"encoding/hex.Dump":                       true,
	"encoding/base64.Encoding.EncodeToString": true,
	"bytes.Clone":                             true,
	"bytes.Join":                              true,
	"slices.Clone":                            true,
}

type keyflowRule struct{}

func (keyflowRule) ID() string { return "keyflow" }
func (keyflowRule) Doc() string {
	return "recovered key material must not be formatted, logged, written out, or converted to string outside internal/secret (PR 8)"
}

func (keyflowRule) Check(m *Module, p *Package) []Finding {
	if !keyflowReports(p.RelPath) {
		return nil
	}
	return m.keyflowFindings()[p.RelPath]
}

// keyflowReports says whether a package is inside the keyflow enforcement
// boundary (both analyzed and reported). The cmd/ binaries print keys by
// explicit operator request and build synthetic dumps with schedules
// planted in them; examples are demos; internal/secret is the sanctioned
// owner of key bytes. All three are outside the boundary — the
// multi-tenant surface the rule protects is the library + service.
func keyflowReports(rel string) bool {
	if rel == "internal/secret" {
		return false
	}
	if strings.HasPrefix(rel, "cmd/") || rel == "examples" || strings.HasPrefix(rel, "examples/") {
		return false
	}
	return true
}

// keyflowFindings runs (once) and caches the whole-module taint analysis.
func (m *Module) keyflowFindings() map[string][]Finding {
	if m.keyflowF == nil {
		e := newTaintEngine(m)
		e.solve()
		m.keyflowF = e.report()
	}
	return m.keyflowF
}

type taintUnit struct {
	fn       *types.Func
	decl     *ast.FuncDecl
	pkg      *Package
	params   []*types.Var // no receiver: receivers do not carry taint
	paramWhy []string     // "" = untainted; set at most once (monotone)
	results  []*types.Var
	retWhy   string
	queued   bool
}

type taintEngine struct {
	m        *Module
	g        *callGraph
	units    map[*types.Func]*taintUnit
	order    []*taintUnit
	callers  map[*types.Func][]*taintUnit
	fieldWhy map[*types.Var]string
	queue    []*taintUnit
}

func newTaintEngine(m *Module) *taintEngine {
	e := &taintEngine{
		m:        m,
		g:        m.graph(),
		units:    make(map[*types.Func]*taintUnit),
		callers:  make(map[*types.Func][]*taintUnit),
		fieldWhy: make(map[*types.Var]string),
	}
	for _, p := range m.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				key := p.RelPath + "." + tn.Name() + "." + f.Name()
				if why, ok := keyflowFields[key]; ok {
					e.fieldWhy[f] = why
				}
			}
		}
	}
	for _, p := range m.Pkgs {
		// internal/secret is the opaque sanitizer; cmd/ and examples/ are
		// operator tools that plant schedules into synthetic dumps and
		// print keys by explicit request — analyzing their bodies would
		// taint every dump image they build and flood the module.
		if !keyflowReports(p.RelPath) {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				u := &taintUnit{fn: fn, decl: fd, pkg: p}
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					u.params = append(u.params, sig.Params().At(i))
				}
				u.paramWhy = make([]string, len(u.params))
				for i := 0; i < sig.Results().Len(); i++ {
					u.results = append(u.results, sig.Results().At(i))
				}
				e.units[fn] = u
				e.order = append(e.order, u)
			}
		}
	}
	for caller, callees := range e.g.calls {
		cu := e.units[caller]
		if cu == nil {
			continue
		}
		for callee := range callees {
			if e.units[callee] != nil {
				e.callers[callee] = append(e.callers[callee], cu)
			}
		}
	}
	return e
}

func (e *taintEngine) push(u *taintUnit) {
	if !u.queued {
		u.queued = true
		e.queue = append(e.queue, u)
	}
}

// solve iterates the per-function analyses to a global fixpoint. Both
// paramWhy entries and retWhy are set at most once, so the worklist
// strictly shrinks once saturation is reached.
func (e *taintEngine) solve() {
	for _, u := range e.order {
		e.push(u)
	}
	for len(e.queue) > 0 {
		u := e.queue[0]
		e.queue = e.queue[1:]
		u.queued = false
		before := u.retWhy
		e.analyze(u, nil)
		if u.retWhy != before {
			for _, c := range e.callers[u.fn] {
				e.push(c)
			}
		}
	}
}

func (e *taintEngine) report() map[string][]Finding {
	out := make(map[string][]Finding)
	for _, u := range e.order {
		rel := u.pkg.RelPath
		if !keyflowReports(rel) {
			continue
		}
		e.analyze(u, func(pos token.Pos, msg string) {
			out[rel] = append(out[rel], Finding{
				Pos:  e.m.Fset.Position(pos),
				Rule: "keyflow",
				Msg:  msg,
			})
		})
	}
	return out
}

func (e *taintEngine) analyze(u *taintUnit, emit func(token.Pos, string)) {
	t := &fnTaint{
		e:       e,
		u:       u,
		info:    u.pkg.Info,
		tainted: make(map[types.Object]string),
		fieldT:  make(map[types.Object]map[*types.Var]string),
	}
	for i, p := range u.params {
		if u.paramWhy[i] != "" {
			t.tainted[p] = u.paramWhy[i]
		}
	}
	for pass := 0; pass < 32; pass++ {
		t.changed = false
		t.grow(u.decl.Body)
		if !t.changed {
			break
		}
	}
	t.finish(u.decl.Body, emit)
	t.returns(u.decl)
}

// funcKey names a function for the config tables: module packages use
// their module-relative path, external packages their import path, and
// methods append "Type.Name".
func (e *taintEngine) funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	path := pkg.Path()
	if path == e.m.Path {
		path = ""
	} else if rest, ok := strings.CutPrefix(path, e.m.Path+"/"); ok {
		path = rest
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedRecvType(sig.Recv().Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	if path == "" {
		return name
	}
	return path + "." + name
}

func namedRecvType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isSecretBytes reports whether t is (a pointer to) secret.Bytes — the
// sanctioned container, exempt from taint: its String() redacts.
func (e *taintEngine) isSecretBytes(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Bytes" && obj.Pkg() != nil && obj.Pkg().Path() == e.m.Path+"/internal/secret"
}

// taintable filters taint to types that can actually retain key material:
// numerics, bools, function values and tuples never carry it.
func (e *taintEngine) taintable(t types.Type) bool {
	if t == nil || e.isSecretBytes(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Signature, *types.Tuple:
		return false
	}
	return true
}

// fnTaint is the per-function analysis state. Taint is tracked at two
// granularities: tainted marks whole objects (direct assignment, range,
// parameter seeding), while fieldT records per-field stores (obj.f = x),
// so storing a master into one field of a context struct does not taint
// sibling fields — without this, AttackRun/huntScratch would taint every
// dump window and config string they carry.
type fnTaint struct {
	e       *taintEngine
	u       *taintUnit
	info    *types.Info
	tainted map[types.Object]string
	fieldT  map[types.Object]map[*types.Var]string
	changed bool
}

// grow runs one pass of intra-procedural propagation, descending into
// function literals (they share the enclosing object space).
func (t *fnTaint) grow(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
				if why := t.taintOf(x.Rhs[0]); why != "" {
					for _, lhs := range x.Lhs {
						t.taintLHS(lhs, why)
					}
				}
			} else {
				for i := range x.Lhs {
					if i < len(x.Rhs) {
						if why := t.taintOf(x.Rhs[i]); why != "" {
							t.taintLHS(x.Lhs[i], why)
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 1 && len(x.Names) > 1 {
				if why := t.taintOf(x.Values[0]); why != "" {
					for _, nm := range x.Names {
						t.taintLHS(nm, why)
					}
				}
			} else {
				for i, nm := range x.Names {
					if i < len(x.Values) {
						if why := t.taintOf(x.Values[i]); why != "" {
							t.taintLHS(nm, why)
						}
					}
				}
			}
		case *ast.RangeStmt:
			if why := t.taintOf(x.X); why != "" {
				if x.Key != nil {
					t.taintLHS(x.Key, why)
				}
				if x.Value != nil {
					t.taintLHS(x.Value, why)
				}
			}
		case *ast.SendStmt:
			if why := t.taintOf(x.Value); why != "" {
				t.taintLHS(x.Chan, why)
			}
		case *ast.CallExpr:
			// copy(dst, src): dst inherits src's taint.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "copy" && len(x.Args) == 2 {
				if _, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin {
					if why := t.taintOf(x.Args[1]); why != "" {
						t.taintLHS(x.Args[0], why)
					}
				}
			}
			// "...Into" sources write key material into their first arg.
			for _, fn := range resolveCallees(t.info, x, t.e.g.impls) {
				if why := keyflowSources[t.e.funcKey(fn)]; why != "" && strings.HasSuffix(fn.Name(), "Into") && len(x.Args) > 0 {
					t.taintLHS(x.Args[0], why)
				}
			}
		}
		return true
	})
}

// finish propagates argument taint into module callees (updating the
// global fixpoint) and, when emit is set, reports sink escapes.
func (t *fnTaint) finish(body *ast.BlockStmt, emit func(token.Pos, string)) {
	var exempt map[*ast.CallExpr]bool
	if emit != nil {
		exempt = t.buildExempt(body)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, isConv := t.info.Types[call.Fun]; !isConv || !tv.IsType() {
			for _, fn := range resolveCallees(t.info, call, t.e.g.impls) {
				cu := t.e.units[fn]
				if cu == nil || len(cu.params) == 0 {
					continue
				}
				for i, a := range call.Args {
					why := t.taintOf(a)
					if why == "" {
						continue
					}
					idx := i
					if idx >= len(cu.params) {
						idx = len(cu.params) - 1 // variadic tail
					}
					// Dump-named parameters are a declassification
					// barrier: a dump is attacker INPUT. Scenario builders
					// plant schedules inside simulated images, so without
					// this cut the whole dump — and everything windowed
					// from it — would count as secret and drown the rule.
					if dumpishName(cu.params[idx].Name()) {
						continue
					}
					if cu.paramWhy[idx] == "" && t.e.taintable(cu.params[idx].Type()) {
						cu.paramWhy[idx] = why
						t.e.push(cu)
					}
				}
			}
		}
		if emit != nil {
			t.sinkCheck(call, exempt, emit)
		}
		return true
	})
}

// returns recomputes the unit's return-taint; `return` inside a function
// literal returns from the literal, so literals are skipped here.
func (t *fnTaint) returns(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				for _, ro := range t.u.results {
					if why := t.tainted[ro]; why != "" {
						t.setRet(why)
					}
				}
			}
			for _, r := range x.Results {
				if why := t.taintOf(r); why != "" {
					t.setRet(why)
				}
			}
		}
		return true
	})
}

func (t *fnTaint) setRet(why string) {
	if t.u.retWhy == "" {
		t.u.retWhy = why
	}
}

// taintOf computes the taint of an expression under the current state.
func (t *fnTaint) taintOf(e ast.Expr) string {
	if e == nil {
		return ""
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := t.info.Uses[x]
		if obj == nil {
			obj = t.info.Defs[x]
		}
		if obj == nil {
			return ""
		}
		return t.tainted[obj]
	case *ast.SelectorExpr:
		if sel, ok := t.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				if why := t.e.fieldWhy[v]; why != "" {
					return why
				}
				// Dump-named fields are the same declassification
				// barrier as dump-named parameters: Outcome.GroundDump
				// on an Outcome that also carries TrueMasters is still
				// attacker input, not a secret.
				if dumpishName(v.Name()) {
					return ""
				}
				// Field read through a simple base: precise — only the
				// whole-object taint or THIS field's stores count, not
				// sibling-field stores.
				if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					obj := t.info.Uses[base]
					if obj == nil {
						obj = t.info.Defs[base]
					}
					if obj != nil {
						if why := t.tainted[obj]; why != "" {
							return why
						}
						return t.fieldT[obj][v]
					}
				}
			}
		}
		return t.taintOf(x.X)
	case *ast.IndexExpr:
		return t.taintOf(x.X)
	case *ast.SliceExpr:
		return t.taintOf(x.X)
	case *ast.StarExpr:
		return t.taintOf(x.X)
	case *ast.UnaryExpr:
		return t.taintOf(x.X)
	case *ast.TypeAssertExpr:
		return t.taintOf(x.X)
	case *ast.BinaryExpr:
		if why := t.taintOf(x.X); why != "" {
			return why
		}
		return t.taintOf(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if why := t.taintOf(v); why != "" {
				return why
			}
		}
	case *ast.CallExpr:
		return t.callTaint(x)
	}
	return ""
}

// callTaint computes the taint of a call's result.
func (t *fnTaint) callTaint(call *ast.CallExpr) string {
	if tv, ok := t.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return t.taintOf(call.Args[0]) // conversions propagate
		}
		return ""
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for _, a := range call.Args {
					if why := t.taintOf(a); why != "" {
						return why
					}
				}
			}
			return ""
		}
	}
	for _, fn := range resolveCallees(t.info, call, t.e.g.impls) {
		key := t.e.funcKey(fn)
		if why := keyflowSources[key]; why != "" {
			return why
		}
		if cu := t.e.units[fn]; cu != nil {
			if cu.retWhy != "" {
				return cu.retWhy
			}
			continue
		}
		if keyflowPropagators[key] {
			for _, a := range call.Args {
				if why := t.taintOf(a); why != "" {
					return why
				}
			}
		}
	}
	return ""
}

// taintLHS taints the target written by an lvalue (or argument buffer):
// x = v taints x wholly, base.f = v taints only field f of base,
// m[k] = v taints m, *p = v taints p.
func (t *fnTaint) taintLHS(lhs ast.Expr, why string) {
	for {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			obj := t.info.Defs[l]
			if obj == nil {
				obj = t.info.Uses[l]
			}
			if obj == nil || !t.e.taintable(obj.Type()) {
				return
			}
			if t.tainted[obj] == "" {
				t.tainted[obj] = why
				t.changed = true
			}
			return
		case *ast.SelectorExpr:
			if sel, ok := t.info.Selections[l]; ok && sel.Kind() == types.FieldVal {
				if base, ok := ast.Unparen(l.X).(*ast.Ident); ok {
					obj := t.info.Uses[base]
					if obj == nil {
						obj = t.info.Defs[base]
					}
					fv, isVar := sel.Obj().(*types.Var)
					if obj != nil && isVar && t.e.taintable(fv.Type()) {
						if t.fieldT[obj] == nil {
							t.fieldT[obj] = make(map[*types.Var]string)
						}
						if t.fieldT[obj][fv] == "" {
							t.fieldT[obj][fv] = why
							t.changed = true
						}
						return
					}
				}
			}
			lhs = l.X
		case *ast.IndexExpr:
			lhs = l.X
		case *ast.StarExpr:
			lhs = l.X
		case *ast.SliceExpr:
			lhs = l.X
		default:
			return
		}
	}
}

// buildExempt collects []byte->string conversions whose result the
// compiler provably does not retain: map index reads and delete keys.
func (t *fnTaint) buildExempt(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	exempt := make(map[*ast.CallExpr]bool)
	conv := func(e ast.Expr) *ast.CallExpr {
		c, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil
		}
		if tv, ok := t.info.Types[c.Fun]; !ok || !tv.IsType() {
			return nil
		}
		return c
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := t.info.Types[x.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if c := conv(x.Index); c != nil {
						exempt[c] = true
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
				if _, isBuiltin := t.info.Uses[id].(*types.Builtin); isBuiltin {
					if c := conv(x.Args[1]); c != nil {
						exempt[c] = true
					}
				}
			}
		}
		return true
	})
	// A converted key on the LHS of an assignment is a map store: the map
	// retains the string, so it is not exempt after all.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if c := conv(ix.Index); c != nil {
					delete(exempt, c)
				}
			}
		}
		return true
	})
	return exempt
}

// sinkCheck reports escapes of tainted values at this call.
func (t *fnTaint) sinkCheck(call *ast.CallExpr, exempt map[*ast.CallExpr]bool, emit func(token.Pos, string)) {
	info := t.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringType(tv.Type) && isByteSliceOrArray(info, call.Args[0]) && !exempt[call] {
			if why := t.taintOf(call.Args[0]); why != "" {
				emit(call.Pos(), fmt.Sprintf("string conversion retains %s in an unwipeable copy; keep []byte and secret.Wipe it, or report secret.Fingerprint", why))
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "print" || id.Name == "println" {
				for _, a := range call.Args {
					if why := t.taintOf(a); why != "" {
						emit(call.Pos(), fmt.Sprintf("%s reaches builtin %s; pass secret.Fingerprint, never key bytes", why, id.Name))
						return
					}
				}
			}
			return
		}
	}
	callees := resolveCallees(info, call, t.e.g.impls)
	// An interface method call resolves to module implementers only; for
	// an interface owned outside the module (http.ResponseWriter) there
	// are none, so the interface method itself is the sink identity.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
					callees = append(callees, fn)
				}
			}
		}
	}
	for _, fn := range callees {
		pkg := fn.Pkg()
		if pkg == nil || t.e.units[fn] != nil {
			continue // module functions are covered by param propagation
		}
		key := t.e.funcKey(fn)
		desc := ""
		switch {
		case pkg.Path() == "fmt" || pkg.Path() == "log":
			desc = "formatting escape"
		default:
			if d, ok := keyflowSinks[key]; ok {
				desc = d + " escape"
			}
		}
		if desc == "" {
			continue
		}
		for _, a := range call.Args {
			if tv, ok := info.Types[a]; ok && t.e.isSecretBytes(tv.Type) {
				continue // secret.Bytes redacts itself when formatted
			}
			if why := t.taintOf(a); why != "" {
				emit(call.Pos(), fmt.Sprintf("%s reaches %s (%s); pass secret.Fingerprint, never key bytes", why, key, desc))
				return
			}
		}
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
