package core

import (
	"context"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

func BenchmarkAttackDump2MiB(b *testing.B) {
	plain := make([]byte, 2<<20)
	if err := workload.Fill(plain, 7, workload.LightSystem); err != nil {
		b.Fatal(err)
	}
	planted := testMaster(6, 32)
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(planted))
	dump := make([]byte, len(plain))
	scramble.NewSkylakeDDR4(11).Scramble(dump, plain, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Attack(context.Background(), dump, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Keys) == 0 {
			b.Fatal("key not recovered")
		}
	}
}
