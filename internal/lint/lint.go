// Package lint is the project's static-analysis suite: it enforces the
// cross-cutting contracts the compiler cannot check and that code review
// will not reliably catch as the tree grows — the same class of silent
// erosion that let weak scramblers pass for memory protection in the source
// paper. Each rule encodes a contract established by an earlier PR:
//
//   - hotxor: hot-path XOR must use the word-level bitutil kernels (PR 1).
//   - ctxthread: exported dump-scanning APIs must thread context.Context
//     and must not manufacture their own background context (PR 2).
//   - keyatmut: Scrambler.KeyAt results are read-only
//     (PR 1: None.KeyAt returns a shared block; PR 2: shards share the
//     global mine pool).
//   - noweakrand: math/rand only in internal/randtest and tests.
//   - noprint: library packages report through internal/obs or return
//     values, never fmt.Print*/log/time.Now (PR 2).
//   - allocloop: no fresh allocations inside per-block hot loops (PR 1's
//     pooled and stack buffers must be reused).
//   - keyflow: interprocedural taint analysis — recovered key material
//     must never be formatted, logged, written out, or converted to
//     string outside internal/secret (PR 8).
//   - lockguard: struct fields annotated "// guarded by <mu>" are only
//     reachable with that mutex held (PR 8).
//   - goroleak: goroutines in internal/* need a context/WaitGroup/channel
//     termination path (PR 8).
//
// Findings print as "file:line: rule-id: message". A deliberate exception
// is annotated in the source with
//
//	//lint:ignore rule-id reason
//
// on the flagged line or the line directly above it; a malformed directive
// (missing rule-id, unknown rule-id, or missing reason) is itself reported
// under the rule-id "lintdirective".
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Rule is one project contract check.
type Rule interface {
	// ID is the stable rule identifier used in output and ignore directives.
	ID() string
	// Doc is a one-line description of the enforced contract.
	Doc() string
	// Check analyzes one package and returns its findings. The module gives
	// access to cross-package analyses (call graph, other packages).
	Check(m *Module, p *Package) []Finding
}

// Rules returns the full suite in output order.
func Rules() []Rule {
	return []Rule{
		hotxorRule{},
		ctxthreadRule{},
		keyatmutRule{},
		noweakrandRule{},
		noprintRule{},
		allocloopRule{},
		keyflowRule{},
		lockguardRule{},
		goroleakRule{},
	}
}

// DirectiveRuleID is the pseudo-rule under which malformed //lint:ignore
// directives are reported.
const DirectiveRuleID = "lintdirective"

// StaleRuleID is the pseudo-rule under which stale //lint:ignore
// directives — well-formed suppressions whose rule no longer fires at
// that site — are reported, keeping the exception inventory honest.
const StaleRuleID = "lintstale"

// Options configures a lint run.
type Options struct {
	// NoIgnores disables //lint:ignore processing: every raw finding is
	// reported (the self-tests use this to verify that suppressed fixtures
	// would fire).
	NoIgnores bool
}

// Run executes every rule over every package of the module and returns the
// findings that survive ignore-directive filtering, sorted by position.
func Run(m *Module, opts Options) []Finding {
	var all []Finding
	for _, p := range m.Pkgs {
		for _, r := range Rules() {
			all = append(all, r.Check(m, p)...)
		}
	}
	if !opts.NoIgnores {
		all = applyIgnores(m, all)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return all
}

func knownRuleIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, r := range Rules() {
		ids[r.ID()] = true
	}
	return ids
}
