package core_test

import (
	"bytes"
	"context"
	"fmt"

	"coldboot/internal/aes"
	"coldboot/internal/core"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// ExampleAttack runs the attack pipeline on a synthetic scrambled dump
// containing an AES-256 key schedule.
func ExampleAttack() {
	// A 2 MiB memory image with an expanded AES-256 key at a known spot.
	plain := make([]byte, 2<<20)
	workload.Fill(plain, 42, workload.LightSystem)
	master := bytes.Repeat([]byte{0xC0, 0xFF, 0xEE, 0x11}, 8)
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(master))

	// Scramble it the way a Skylake memory controller would.
	s := scramble.NewSkylakeDDR4(0xFEED)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)

	res, err := core.Attack(context.Background(), dump, core.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("stride:", res.Stride)
	fmt.Println("recovered:", bytes.Equal(res.Keys[0].Master, master))
	// Output:
	// stride: 4096
	// recovered: true
}

// ExamplePassesKeyLitmus shows the scrambler-key litmus test on a real key
// versus ordinary data.
func ExamplePassesKeyLitmus() {
	s := scramble.NewSkylakeDDR4(7)
	key := s.KeyAt(0)
	text := bytes.Repeat([]byte("not a scrambler key but text... "), 2)
	fmt.Println("key passes:", core.PassesKeyLitmus(key, 0))
	fmt.Println("text passes:", core.PassesKeyLitmus(text[:64], core.DefaultLitmusTolerance))
	// Output:
	// key passes: true
	// text passes: false
}

// ExampleAESLitmus verifies a single 64-byte block contains consecutive
// round keys — without looking at any neighbouring block.
func ExampleAESLitmus() {
	master := make([]byte, 32)
	for i := range master {
		master[i] = byte(i * 11)
	}
	sched := aes.ExpandKeyBytes(master)
	block := make([]byte, 64)
	copy(block, sched[64:128]) // schedule words 16..31

	hits := core.AESLitmus(block, aes.AES256, 0)
	words := aes.BytesToWords(block)
	recovered := false
	for _, h := range hits {
		// Extend the hit's window back to schedule word 0: the master.
		window := words[h.WordOffset : h.WordOffset+aes.AES256.Nk()]
		if bytes.Equal(aes.RecoverMasterKey(window, h.ScheduleIndex, aes.AES256), master) {
			recovered = true
		}
	}
	fmt.Println("master recovered from one block:", recovered)
	// Output:
	// master recovered from one block: true
}
