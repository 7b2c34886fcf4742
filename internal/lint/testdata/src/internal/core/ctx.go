// Package core is a ctxthread fixture: exported functions here that reach
// a dump-block loop must thread context.Context.
package core

import "context"

// ScanAll reaches a dump-block loop with no context parameter.
func ScanAll(dump []byte) int { // want ctxthread
	total := 0
	for b := 0; b < len(dump)/64; b++ {
		total += int(dump[b*64 : (b+1)*64][0])
	}
	return total
}

// ScanAllContext threads the context properly: not a finding.
func ScanAllContext(ctx context.Context, dump []byte) (int, error) {
	total := 0
	for b := 0; b < len(dump)/64; b++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		total += int(dump[b*64 : (b+1)*64][0])
	}
	return total, nil
}

// ScanCompat is a compat bridge — it delegates to the Context sibling with
// context.Background() as the first argument. Bridges get no exemption:
// the context-free twin is itself the finding.
func ScanCompat(dump []byte) int { // want ctxthread
	out, _ := ScanAllContext(context.Background(), dump)
	return out
}

// ScanSneaky takes a context but then manufactures its own.
func ScanSneaky(ctx context.Context, dump []byte) int {
	out, _ := ScanAllContext(context.Background(), dump) // want ctxthread
	return out
}

// walkBlocks is the unexported helper Indirect reaches the loop through.
func walkBlocks(dump []byte) int {
	total := 0
	for b := 0; b < len(dump)/64; b++ {
		total += int(dump[b*64 : (b+1)*64][0])
	}
	return total
}

// Indirect reaches a dump-block loop transitively through walkBlocks.
func Indirect(dump []byte) int { // want ctxthread
	return walkBlocks(dump)
}

// Bounded does no dump-scale work: not a finding.
func Bounded(block []byte) int {
	total := 0
	for i := range block {
		total += int(block[i])
	}
	return total
}
