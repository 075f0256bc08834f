package ecc

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// Reference checks for the P-256 field kernels: whatever p256Mul and
// p256Sqr dispatch to (the ADX assembly on amd64, the portable code
// elsewhere) must agree with the portable code and with math/big on the
// Montgomery product x·y·R⁻¹ mod p.

var bigR = new(big.Int).Lsh(big.NewInt(1), 256)

func limbsBig(v *[4]uint64) *big.Int {
	var b [32]byte
	limbsToBytes(&b, v)
	return new(big.Int).SetBytes(b[:])
}

// montRef is x·y·R⁻¹ mod p by math/big.
func montRef(x, y *[4]uint64) [4]uint64 {
	z := new(big.Int).Mul(limbsBig(x), limbsBig(y))
	z.Mul(z, new(big.Int).ModInverse(bigR, P)).Mod(z, P)
	var out [4]uint64
	bigToLimbs(&out, z)
	return out
}

// montAccumulator is the value a Montgomery reduction of x·y holds
// before its final conditional subtraction: (x·y + U·p)/R with
// U = −x·y·p⁻¹ mod R. It lies in [0, 2p).
func montAccumulator(x, y *[4]uint64) *big.Int {
	xy := new(big.Int).Mul(limbsBig(x), limbsBig(y))
	pInv := new(big.Int).ModInverse(P, bigR)
	u := new(big.Int).Neg(xy)
	u.Mul(u, pInv).Mod(u, bigR)
	t := new(big.Int).Mul(u, P)
	t.Add(t, xy)
	return t.Rsh(t, 256)
}

// kernelEdges are canonical (< p) inputs aimed at the special-form
// reduction's carries: the reduction word u = t0 at 2^64 − 1 and at
// 2^32 (the shift split), p − 1 and its neighbours, R mod p, single
// limbs, and the operands whose product leaves the accumulator just
// below 2p (found by search among operands near p).
func kernelEdges() [][4]uint64 {
	pm1Limbs := [4]uint64{pm0 - 1, pm1, pm2, pm3}
	edges := [][4]uint64{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{2, 0, 0, 0},
		{1 << 16, 0, 0, 0},
		{1 << 32, 0, 0, 0},
		{^uint64(0), 0, 0, 0},
		{^uint64(0), ^uint64(0), 0, 0},
		{^uint64(0), ^uint64(0), ^uint64(0), 0},
		{0, ^uint64(0), ^uint64(0), 0},
		{0, 0, 0, 1 << 63},
		{1, 0, 0, pm3 - 1},
		pm1Limbs,
		{pm0 - 2, pm1, pm2, pm3},
		{0, pm1 + 1, 0, pm3},   // p − 2^64 + 1
		pParams.one,            // R mod p
		pParams.rr,             // R² mod p
		{pm0, pm1 - 1, 0, pm3}, // p − 2^64
	}
	// The pair and the square whose accumulator lands closest below 2p.
	rng := rand.New(rand.NewSource(11))
	twoP := new(big.Int).Lsh(P, 1)
	var bestPair, bestSqr [2][4]uint64
	var gapPair, gapSqr *big.Int
	near := func() [4]uint64 {
		v := pm1Limbs
		v[0] -= rng.Uint64() >> 24
		return v
	}
	for i := 0; i < 2048; i++ {
		x, y := near(), near()
		if gap := new(big.Int).Sub(twoP, montAccumulator(&x, &y)); gapPair == nil || gap.Cmp(gapPair) < 0 {
			gapPair, bestPair = gap, [2][4]uint64{x, y}
		}
		if gap := new(big.Int).Sub(twoP, montAccumulator(&x, &x)); gapSqr == nil || gap.Cmp(gapSqr) < 0 {
			gapSqr, bestSqr = gap, [2][4]uint64{x, x}
		}
	}
	return append(edges, bestPair[0], bestPair[1], bestSqr[0])
}

// checkP256Kernels compares the dispatched kernels, the portable code
// and math/big on one canonical pair.
func checkP256Kernels(t *testing.T, x, y [4]uint64) {
	t.Helper()
	want := montRef(&x, &y)
	var mul, mulGen [4]uint64
	p256Mul(&mul, &x, &y)
	p256MulGeneric(&mulGen, &x, &y)
	if mul != want || mulGen != want {
		t.Fatalf("mul x=%x y=%x: kernel %x, portable %x, big %x", x, y, mul, mulGen, want)
	}
	wantSqr := montRef(&x, &x)
	var sqr, sqrGen [4]uint64
	p256Sqr(&sqr, &x)
	p256SqrGeneric(&sqrGen, &x)
	if sqr != wantSqr || sqrGen != wantSqr {
		t.Fatalf("sqr x=%x: kernel %x, portable %x, big %x", x, sqr, sqrGen, wantSqr)
	}
}

// reduceMod subtracts m until v < m.
func reduceMod(v, m *[4]uint64) {
	for !limbsLess(v, m) {
		var t [4]uint64
		montSub(&t, v, m, &fieldParams{m: *m})
		*v = t
	}
}

// FuzzP256Kernels checks mul and sqr — dispatched kernel, portable code
// and math/big — on fuzzer-chosen operands reduced mod p.
func FuzzP256Kernels(f *testing.F) {
	enc := func(x, y [4]uint64) []byte {
		b := make([]byte, 64)
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], x[i])
			binary.LittleEndian.PutUint64(b[32+8*i:], y[i])
		}
		return b
	}
	edges := kernelEdges()
	top := edges[len(edges)-3:]
	if acc := montAccumulator(&top[0], &top[1]); acc.Cmp(P) < 0 {
		f.Fatalf("near-2p search found accumulator %x < p", acc)
	}
	for _, x := range edges {
		for _, y := range edges {
			f.Add(enc(x, y))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [64]byte
		copy(buf[:], data)
		var x, y [4]uint64
		for i := 0; i < 4; i++ {
			x[i] = binary.LittleEndian.Uint64(buf[8*i:])
			y[i] = binary.LittleEndian.Uint64(buf[32+8*i:])
		}
		reduceMod(&x, &pParams.m)
		reduceMod(&y, &pParams.m)
		checkP256Kernels(t, x, y)
	})
}

// The field kernels at the floor of every point operation: CI reads
// their allocs/op column against a budget of zero.

func BenchmarkFieldMul(b *testing.B) {
	x, y := fe(pParams.rr), feGx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feMul(&x, &x, &y)
	}
	sinkFe = x
}

func BenchmarkFieldSqr(b *testing.B) {
	x := feGx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feSqr(&x, &x)
	}
	sinkFe = x
}

var sinkFe fe
