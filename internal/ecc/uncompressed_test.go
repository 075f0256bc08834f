package ecc

import (
	"bytes"
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

// TestFieldChainsMatchMontPow checks the coordinate field's fixed
// addition chains (feInv, feSqrt) against the generic window
// exponentiation they replaced, on the edge values and random inputs —
// squares and non-residues alike.
func TestFieldChainsMatchMontPow(t *testing.T) {
	var sqrtE [4]uint64
	bigToLimbs(&sqrtE, new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2))

	inputs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(P, big.NewInt(1))}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 512; i++ {
		inputs = append(inputs, new(big.Int).Rand(rng, P))
	}
	squares, nonResidues := 0, 0
	for _, v := range inputs {
		var x, got, want fe
		feFromBig(&x, v)

		feInv(&got, &x)
		montPow((*[4]uint64)(&want), (*[4]uint64)(&x), &pParams.mm2, &pParams)
		if got != want {
			t.Fatalf("feInv(%x) = %x, montPow says %x", v, got, want)
		}
		alias := x
		feInv(&alias, &alias)
		if alias != want {
			t.Fatalf("feInv(%x) aliased = %x, want %x", v, alias, want)
		}

		montPow((*[4]uint64)(&want), (*[4]uint64)(&x), &sqrtE, &pParams)
		var chk fe
		feSqr(&chk, &want)
		isSquare := feEqual(&chk, &x)
		got = fe{}
		if ok := feSqrt(&got, &x); ok != isSquare {
			t.Fatalf("feSqrt(%x) reported %v, montPow candidate squares back: %v", v, ok, isSquare)
		}
		if isSquare {
			squares++
			if got != want {
				t.Fatalf("feSqrt(%x) = %x, montPow says %x", v, got, want)
			}
		} else {
			nonResidues++
		}
	}
	if squares < 100 || nonResidues < 100 {
		t.Fatalf("inputs cover %d squares and %d non-residues; want both well represented", squares, nonResidues)
	}
}

// uncompressedRef is the reference encoding of one point: crypto/
// elliptic's SEC1 uncompressed form, or the single identity byte.
func uncompressedRef(t *testing.T, p *Point) []byte {
	r := toRef(t, p)
	if r.isIdentity() {
		return []byte{0}
	}
	return elliptic.Marshal(refCurve, r.x, r.y)
}

// jacobian returns p rescaled to a random Z ≠ 1 — the form arithmetic
// results arrive in.
func jacobian(rng *rand.Rand, p *Point) *Point {
	if p.IsIdentity() {
		return p
	}
	var z, z2, z3 fe
	feFromBig(&z, new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(P, big.NewInt(2))), big.NewInt(2)))
	feSqr(&z2, &z)
	feMul(&z3, &z2, &z)
	x, y := p.affine()
	q := new(Point)
	feMul(&q.x, &x, &z2)
	feMul(&q.y, &y, &z3)
	q.z = z
	return q
}

// TestUncompressedBatchMatchesReference: the batch encoder agrees with
// crypto/elliptic on every point of a batch mixing identity, affine and
// Jacobian inputs, leaves its inputs untouched, and the decoder returns
// the same group elements.
func TestUncompressedBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 17} {
		var ps []*Point
		for _, p := range testPoints(t, rng, n) {
			ps = append(ps, p, jacobian(rng, p))
		}
		var want []byte
		before := make([]Point, len(ps))
		for i, p := range ps {
			want = append(want, uncompressedRef(t, p)...)
			before[i] = *p
		}
		prefix := []byte("prefix")
		got := AppendUncompressedBatch(append([]byte(nil), prefix...), ps)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("n=%d: batch encoding disagrees with crypto/elliptic", n)
		}
		for i, p := range ps {
			if *p != before[i] {
				t.Fatalf("n=%d: encoder mutated input %d", n, i)
			}
		}
		dec := make([]Point, len(ps))
		used, err := DecodeUncompressedBatch(dec, append(want, 0xAA))
		if err != nil || used != len(want) {
			t.Fatalf("n=%d: decode used %d of %d bytes, err %v", n, used, len(want), err)
		}
		for i := range dec {
			if !dec[i].Equal(ps[i]) || !dec[i].OnCurve() {
				t.Fatalf("n=%d: point %d decoded to a different element", n, i)
			}
		}
	}
}

// TestDecodeUncompressedRejects: everything but 0x00 and a canonical
// on-curve 0x04‖x‖y is refused.
func TestDecodeUncompressedRejects(t *testing.T) {
	g := AppendUncompressedBatch(nil, []*Point{Generator()})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), g...)
		f(b)
		return b
	}
	pBytes := P.FillBytes(make([]byte, 32))
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      g[:64],
		"off curve":      mutate(func(b []byte) { b[64] ^= 1 }),
		"x = p":          mutate(func(b []byte) { copy(b[1:33], pBytes) }),
		"y = p":          mutate(func(b []byte) { copy(b[33:65], pBytes) }),
		"x all ones":     mutate(func(b []byte) { copy(b[1:33], bytes.Repeat([]byte{0xff}, 32)) }),
		"compressed tag": Generator().Bytes(),
		"hybrid tag":     mutate(func(b []byte) { b[0] = 6 }),
		"zero point":     append([]byte{4}, make([]byte, 64)...),
	}
	for name, b := range cases {
		var dst [1]Point
		if _, err := DecodeUncompressedBatch(dst[:], b); err == nil {
			t.Errorf("%s: accepted %x", name, b)
		}
	}
}
