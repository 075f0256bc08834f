package ecc

import (
	"math/rand"
	"testing"
)

// Benchmarks for the multi-scalar and fixed-base batch pipelines — the
// two primitives every shuffle-sized operation reduces to. CI runs
// these as a smoke (and reads the allocs/op column as a regression
// guard); the reference benchmark (benchmark/) tracks the
// protocol-level numbers.

func benchPairs(n int) ([]*Scalar, []*Point) {
	rng := rand.New(rand.NewSource(int64(n)))
	ks := make([]*Scalar, n)
	ps := make([]*Point, n)
	for i := range ks {
		var b [32]byte
		rng.Read(b[:])
		ks[i] = ScalarFromBytes(b[:])
		rng.Read(b[:])
		ps[i] = BaseMul(ScalarFromBytes(b[:]))
	}
	return ks, ps
}

func BenchmarkMultiScalarMul1024(b *testing.B) {
	ks, ps := benchPairs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiScalarMul(ks, ps)
	}
}

func BenchmarkBaseMulBatch1024(b *testing.B) {
	ks, _ := benchPairs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMulBatch(ks)
	}
}

func BenchmarkMulBatch1024(b *testing.B) {
	ks, _ := benchPairs(1024)
	p := BaseMul(NewScalar(7919))
	WarmBase(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulBatch(p, ks)
	}
}
