// alloc.go is an allocloop fixture: allocations inside the per-block hot
// loops of the scan packages must be flagged.
package core

// scanBlocks allocates a fresh buffer every block.
func scanBlocks(dump []byte) [][]byte {
	var out [][]byte
	for b := 0; b < len(dump)/64; b++ {
		buf := make([]byte, 64) // want allocloop
		copy(buf, dump[b*64:(b+1)*64])
		out = append(out, buf) // accumulator append: not a finding
	}
	return out
}

// scanBlocksPooled hoists the buffer out of the loop: not a finding.
func scanBlocksPooled(dump []byte) int {
	buf := make([]byte, 64)
	total := 0
	for b := 0; b < len(dump)/64; b++ {
		copy(buf, dump[b*64:(b+1)*64])
		total += int(buf[0])
	}
	return total
}

// freshLiteral appends onto a fresh composite literal every block.
func freshLiteral(dump []byte) [][]byte {
	var out [][]byte
	for b := 0; b < len(dump)/64; b++ {
		out = append(out, append([]byte{}, dump[b*64:(b+1)*64]...)) // want allocloop
	}
	return out
}

var _ = scanBlocks
var _ = scanBlocksPooled
var _ = freshLiteral
