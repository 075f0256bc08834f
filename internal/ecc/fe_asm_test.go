//go:build amd64

package ecc

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestMulAsmMatchesGeneric cross-checks the ADX assembly kernels — the
// P-256 multiplier and squaring, and the group-order multiplier —
// against the portable code and math/big on random and
// carry-adversarial inputs (kernelEdges). Inputs are reduced mod the
// field first (the kernels' contract is canonical inputs).
func TestMulAsmMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip("no ADX on this CPU")
	}
	qEdges := [][4]uint64{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{^uint64(0), 0, 0, ^uint64(0)},
		{0, ^uint64(0), ^uint64(0), 0},
		{qm0 - 1, qm1, qm2, qm3}, // q-1 (limbs)
		{0, 0, 0, 0x8000000000000000},
	}
	pEdges := kernelEdges()
	rng := rand.New(rand.NewSource(7))
	randLimbs := func() [4]uint64 {
		return [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	var pCases, qCases [][2][4]uint64
	for _, a := range pEdges {
		for _, b := range pEdges {
			pCases = append(pCases, [2][4]uint64{a, b})
		}
	}
	for _, a := range qEdges {
		for _, b := range qEdges {
			qCases = append(qCases, [2][4]uint64{a, b})
		}
	}
	for i := 0; i < 4096; i++ {
		pCases = append(pCases, [2][4]uint64{randLimbs(), randLimbs()})
		qCases = append(qCases, [2][4]uint64{randLimbs(), randLimbs()})
	}

	for _, c := range pCases {
		x, y := c[0], c[1]
		reduceMod(&x, &pParams.m)
		reduceMod(&y, &pParams.m)
		checkP256Kernels(t, x, y) // dispatches to the assembly here
	}
	qRInv := new(big.Int).ModInverse(bigR, Order)
	for _, c := range qCases {
		x, y := c[0], c[1]
		reduceMod(&x, &qParams.m)
		reduceMod(&y, &qParams.m)
		wb := new(big.Int).Mul(limbsBig(&x), limbsBig(&y))
		wb.Mul(wb, qRInv).Mod(wb, Order)
		var want, gen, asm [4]uint64
		bigToLimbs(&want, wb)
		ordMulGeneric(&gen, &x, &y)
		ordMulADX(&asm, &x, &y)
		if gen != want || asm != want {
			t.Fatalf("ordMul x=%x y=%x: generic %x, asm %x, big %x", x, y, gen, asm, want)
		}
	}
}

// TestPortableCurveMatchesReference reruns the crypto/elliptic
// differential checks with the assembly switched off, so the portable
// kernels that carry every non-amd64 build are exercised end to end on
// this host too: Mul and BaseMul, the batch pipelines (MulSameScalarBatch,
// BaseMulBatch, MulBatch and the fused forms), MultiScalarMul, and
// PointFromBytes, whose decompression runs feSqrt and whose Bytes runs
// feInv.
func TestPortableCurveMatchesReference(t *testing.T) {
	saved := hasADX
	hasADX = false
	t.Cleanup(func() { hasADX = saved })

	t.Run("Mul", TestDifferentialMulAndBaseMul)
	t.Run("BatchAPIs", TestDifferentialBatchAPIs)
	t.Run("MultiScalarMul", TestDifferentialMultiScalarMul)
	t.Run("MulSameScalarBatch", func(t *testing.T) {
		rng := rand.New(rand.NewSource(105))
		pts := testPoints(t, rng, sameScalarMin+8)
		for _, k := range testScalars(t, rng, 2) {
			got := MulSameScalarBatch(k, pts)
			for i, p := range pts {
				if g, w := toRef(t, got[i]), refMul(toRef(t, p), k); !refEqual(g, w) {
					t.Fatalf("MulSameScalarBatch[%d] mismatch at k=%x", i, k.Bytes())
				}
			}
		}
	})
	t.Run("PointFromBytes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(106))
		for _, k := range testScalars(t, rng, 16) {
			want := refBaseMul(k)
			enc := fromRefBytes(want)
			p, err := PointFromBytes(enc)
			if err != nil {
				t.Fatalf("decode %x: %v", enc, err)
			}
			if got := p.Add(p).Sub(p).Bytes(); string(got) != string(enc) {
				t.Fatalf("round trip %x -> %x", enc, got)
			}
		}
	})
}
