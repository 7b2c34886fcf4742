package format

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry maps format names to their Scanner implementations. Leaf
// packages (format/chacha20, format/luks2) self-register in their init
// functions; importing coldboot/internal/format/all pulls in every
// built-in. The pipeline layers (core, service, cmds) resolve names
// against this registry only — they never import a leaf directly, so a
// binary's format set is exactly its import set (plus core's built-in
// "aesxts" hunt, which needs no registration).

var (
	regMu  sync.RWMutex
	reg    = make(map[string]Scanner)
	regSeq []string // registration order, for deterministic default sets
)

// Register adds a scanner under its Name. Registering a duplicate name
// panics: format names are global API surface (CLI flags, query
// parameters, metric names) and must be unambiguous.
func Register(s Scanner) {
	regMu.Lock()
	defer regMu.Unlock()
	name := s.Name()
	if name == "" {
		panic("format: scanner with empty name")
	}
	if _, dup := reg[name]; dup {
		panic(fmt.Sprintf("format: duplicate scanner %q", name))
	}
	reg[name] = s
	regSeq = append(regSeq, name)
}

// Get returns the registered scanner with the given name.
func Get(name string) (Scanner, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := reg[name]
	return s, ok
}

// Names returns every registered format name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regSeq))
	copy(out, regSeq)
	sort.Strings(out)
	return out
}

// ParseSpec splits a comma-separated format spec ("aesxts,chacha20") into
// a deduplicated name list, preserving order. Empty elements are skipped;
// an empty spec yields nil (meaning: the caller's default set).
func ParseSpec(spec string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}
