package ecc

// Portable Montgomery kernels specialized to the two moduli, with the
// limb constants inlined so the compiler keeps them in registers
// instead of reloading through a fieldParams pointer each round. They
// are the fallback behind the amd64 assembly (fe_mul_amd64.s) and the
// whole story elsewhere; the generic montMul remains for cold
// conversions. Correctness of the transcribed constants is asserted
// against math/big at package init (see curve.go).

import "math/bits"

const (
	pm0 = 0xffffffffffffffff
	pm1 = 0x00000000ffffffff
	pm2 = 0x0000000000000000
	pm3 = 0xffffffff00000001
	pn0 = 1

	qm0 = 0xf3b9cac2fc632551
	qm1 = 0xbce6faada7179e84
	qm2 = 0xffffffffffffffff
	qm3 = 0xffffffff00000000
	qn0 = 0xccd1c8aaee00bc4f
)

// p256MulGeneric is the portable CIOS multiplier: z = x·y·R⁻¹ mod p.
// z may alias x or y.
func p256MulGeneric(z, x, y *[4]uint64) {
	var t0, t1, t2, t3, t4, t5 uint64
	var c, hi, lo, cc uint64
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]

	for i := 0; i < 4; i++ {
		xi := x[i]
		// t += xi·y
		hi, lo = bits.Mul64(xi, y0)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t4, t5 = bits.Add64(t4, c, 0)

		// reduce: u·p with u = t0·n0 = t0 (n0 = 1 for p256)
		u := t0 * pn0
		hi, lo = bits.Mul64(u, pm0)
		_, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, pm1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, pm2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, pm3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t3, cc = bits.Add64(t4, c, 0)
		t4 = t5 + cc
	}

	var r0, r1, r2, r3, b uint64
	r0, b = bits.Sub64(t0, pm0, 0)
	r1, b = bits.Sub64(t1, pm1, b)
	r2, b = bits.Sub64(t2, pm2, b)
	r3, b = bits.Sub64(t3, pm3, b)
	if t4 != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// p256SqrGeneric is the portable squaring: z = x²·R⁻¹ mod p. The ten
// partial products (six cross products, doubled, and four squares)
// form the 512-bit square; its low half is reduced by four special-form
// Montgomery steps (p256ReduceStep) and the high half added back, which
// leaves a value below 2p for one conditional subtraction. z may alias
// x.
func p256SqrGeneric(z, x *[4]uint64) {
	a0, a1, a2, a3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3, t4, t5, t6, t7, c, hi, lo uint64

	// Cross products a_i·a_j (i < j) into t1..t6.
	t2, t1 = bits.Mul64(a0, a1)
	hi, lo = bits.Mul64(a0, a2)
	t2, c = bits.Add64(t2, lo, 0)
	t3 = hi + c
	hi, lo = bits.Mul64(a0, a3)
	t3, c = bits.Add64(t3, lo, 0)
	t4 = hi + c
	hi, lo = bits.Mul64(a1, a2)
	t3, c = bits.Add64(t3, lo, 0)
	c += hi
	hi, lo = bits.Mul64(a1, a3)
	lo, cc := bits.Add64(lo, c, 0)
	hi += cc
	t4, c = bits.Add64(t4, lo, 0)
	t5 = hi + c
	hi, lo = bits.Mul64(a2, a3)
	t5, c = bits.Add64(t5, lo, 0)
	t6 = hi + c

	// Double them, then add the squares a_i².
	t7 = t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1
	hi, t0 = bits.Mul64(a0, a0)
	t1, c = bits.Add64(t1, hi, 0)
	hi, lo = bits.Mul64(a1, a1)
	t2, c = bits.Add64(t2, lo, c)
	t3, c = bits.Add64(t3, hi, c)
	hi, lo = bits.Mul64(a2, a2)
	t4, c = bits.Add64(t4, lo, c)
	t5, c = bits.Add64(t5, hi, c)
	hi, lo = bits.Mul64(a3, a3)
	t6, c = bits.Add64(t6, lo, c)
	t7, _ = bits.Add64(t7, hi, c)

	t0, t1, t2, t3 = p256ReduceStep(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256ReduceStep(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256ReduceStep(t0, t1, t2, t3)
	t0, t1, t2, t3 = p256ReduceStep(t0, t1, t2, t3)

	var carry, b uint64
	t0, c = bits.Add64(t0, t4, 0)
	t1, c = bits.Add64(t1, t5, c)
	t2, c = bits.Add64(t2, t6, c)
	t3, carry = bits.Add64(t3, t7, c)

	var r0, r1, r2, r3 uint64
	r0, b = bits.Sub64(t0, pm0, 0)
	r1, b = bits.Sub64(t1, pm1, b)
	r2, b = bits.Sub64(t2, pm2, b)
	r3, b = bits.Sub64(t3, pm3, b)
	if carry != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// p256ReduceStep is one special-form Montgomery step on a four-word
// window: (t + u·p) / 2^64 with u = t0. Because n0 = 1 and
// p = 2^256 − 2^224 + 2^192 + 2^96 − 1, t0 + u·(2^64 − 1) = u·2^64 and
// u + u·(2^32 − 1) = u·2^32, so u·p lands as u<<32 and u>>32 in words 1
// and 2 plus the one product u·p3 in words 3 and 4. The window stays
// below 2^256, and the returned top word cannot overflow
// (hi(u·p3) < 2^64 − 1).
func p256ReduceStep(t0, t1, t2, t3 uint64) (uint64, uint64, uint64, uint64) {
	hi, lo := bits.Mul64(t0, pm3)
	var c uint64
	t1, c = bits.Add64(t1, t0<<32, 0)
	t2, c = bits.Add64(t2, t0>>32, c)
	t3, c = bits.Add64(t3, lo, c)
	return t1, t2, t3, hi + c
}

// ordMulGeneric is the portable CIOS multiplier: z = x·y·R⁻¹ mod q (the
// group order). z may alias x or y.
func ordMulGeneric(z, x, y *[4]uint64) {
	var t0, t1, t2, t3, t4, t5 uint64
	var c, hi, lo, cc uint64
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]

	for i := 0; i < 4; i++ {
		xi := x[i]
		hi, lo = bits.Mul64(xi, y0)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(xi, y3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t4, t5 = bits.Add64(t4, c, 0)

		u := t0 * qn0
		hi, lo = bits.Mul64(u, qm0)
		_, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, qm1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, qm2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(u, qm3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		t3, cc = bits.Add64(t4, c, 0)
		t4 = t5 + cc
	}

	var r0, r1, r2, r3, b uint64
	r0, b = bits.Sub64(t0, qm0, 0)
	r1, b = bits.Sub64(t1, qm1, b)
	r2, b = bits.Sub64(t2, qm2, b)
	r3, b = bits.Sub64(t3, qm3, b)
	if t4 != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}
