package ecc

// Fixed-width field arithmetic for the two prime fields the package
// needs: the P-256 coordinate field GF(p) and the scalar field GF(q)
// (q = group order). Elements are 4×64-bit little-endian limbs kept in
// Montgomery form (a·R mod m, R = 2^256), so multiplication is a
// single CIOS Montgomery pass with no heap allocation — the entire
// hot path of the mixnet runs on these value types, never math/big.
//
// The arithmetic is variable-time: this is a research reproduction of
// the Atom paper's performance results, and the shuffle/NIZK workload
// operates on ciphertexts that are public to the server mixing them.
// Long-term secrets only touch these routines through key generation
// and decryption, which this codebase does not claim to harden against
// local side-channel observers.

import (
	"math/big"
	"math/bits"
)

// fieldParams carries everything montMul needs for one modulus.
type fieldParams struct {
	m    [4]uint64 // modulus, little-endian limbs
	n0   uint64    // -m⁻¹ mod 2^64
	rr   [4]uint64 // R² mod m (to enter Montgomery form)
	one  [4]uint64 // R mod m (the Montgomery form of 1)
	mBig *big.Int
	mm2  [4]uint64 // m-2, exponent for Fermat inversion
}

var (
	pParams fieldParams // coordinate field GF(p)
	qParams fieldParams // scalar field GF(q)
)

func initFieldParams(fp *fieldParams, m *big.Int) {
	fp.mBig = m
	bigToLimbs(&fp.m, m)
	// n0 = -m⁻¹ mod 2^64
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	inv := new(big.Int).ModInverse(new(big.Int).Mod(m, two64), two64)
	fp.n0 = new(big.Int).Sub(two64, inv).Uint64()
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	bigToLimbs(&fp.one, new(big.Int).Mod(r, m))
	bigToLimbs(&fp.rr, new(big.Int).Mod(new(big.Int).Mul(r, r), m))
	bigToLimbs(&fp.mm2, new(big.Int).Sub(m, big.NewInt(2)))
}

func bigToLimbs(dst *[4]uint64, v *big.Int) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := 0; i < 4; i++ {
		dst[i] = uint64(buf[31-8*i]) | uint64(buf[30-8*i])<<8 |
			uint64(buf[29-8*i])<<16 | uint64(buf[28-8*i])<<24 |
			uint64(buf[27-8*i])<<32 | uint64(buf[26-8*i])<<40 |
			uint64(buf[25-8*i])<<48 | uint64(buf[24-8*i])<<56
	}
}

func limbsToBytes(dst *[32]byte, v *[4]uint64) {
	for i := 0; i < 4; i++ {
		l := v[i]
		dst[31-8*i] = byte(l)
		dst[30-8*i] = byte(l >> 8)
		dst[29-8*i] = byte(l >> 16)
		dst[28-8*i] = byte(l >> 24)
		dst[27-8*i] = byte(l >> 32)
		dst[26-8*i] = byte(l >> 40)
		dst[25-8*i] = byte(l >> 48)
		dst[24-8*i] = byte(l >> 56)
	}
}

func limbsFromBytes(dst *[4]uint64, b *[32]byte) {
	for i := 0; i < 4; i++ {
		dst[i] = uint64(b[31-8*i]) | uint64(b[30-8*i])<<8 |
			uint64(b[29-8*i])<<16 | uint64(b[28-8*i])<<24 |
			uint64(b[27-8*i])<<32 | uint64(b[26-8*i])<<40 |
			uint64(b[25-8*i])<<48 | uint64(b[24-8*i])<<56
	}
}

// montMul sets z = x·y·R⁻¹ mod m using CIOS Montgomery multiplication.
// Inputs must be < m; the output is < m. z may alias x or y.
func montMul(z, x, y *[4]uint64, fp *fieldParams) {
	var t [5]uint64
	var t5 uint64
	for i := 0; i < 4; i++ {
		// t += x[i]·y
		var c uint64
		xi := x[i]
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var cc uint64
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j], cc = bits.Add64(t[j], lo, 0)
			c = hi + cc
		}
		t[4], t5 = bits.Add64(t[4], c, 0)

		// t = (t + u·m) / 2^64 where u makes the low limb vanish
		u := t[0] * fp.n0
		hi, lo := bits.Mul64(u, fp.m[0])
		_, cc := bits.Add64(t[0], lo, 0)
		c = hi + cc
		for j := 1; j < 4; j++ {
			hi, lo := bits.Mul64(u, fp.m[j])
			var c2 uint64
			lo, c2 = bits.Add64(lo, c, 0)
			hi += c2
			t[j-1], c2 = bits.Add64(t[j], lo, 0)
			c = hi + c2
		}
		t[3], cc = bits.Add64(t[4], c, 0)
		t[4] = t5 + cc
	}
	// Conditional final subtraction: the accumulator is < 2m.
	var r [4]uint64
	var b uint64
	r[0], b = bits.Sub64(t[0], fp.m[0], 0)
	r[1], b = bits.Sub64(t[1], fp.m[1], b)
	r[2], b = bits.Sub64(t[2], fp.m[2], b)
	r[3], b = bits.Sub64(t[3], fp.m[3], b)
	if t[4] != 0 || b == 0 {
		*z = r
	} else {
		z[0], z[1], z[2], z[3] = t[0], t[1], t[2], t[3]
	}
}

// montAdd sets z = x + y mod m. z may alias x or y.
func montAdd(z, x, y *[4]uint64, fp *fieldParams) {
	var t [4]uint64
	var c uint64
	t[0], c = bits.Add64(x[0], y[0], 0)
	t[1], c = bits.Add64(x[1], y[1], c)
	t[2], c = bits.Add64(x[2], y[2], c)
	t[3], c = bits.Add64(x[3], y[3], c)
	var r [4]uint64
	var b uint64
	r[0], b = bits.Sub64(t[0], fp.m[0], 0)
	r[1], b = bits.Sub64(t[1], fp.m[1], b)
	r[2], b = bits.Sub64(t[2], fp.m[2], b)
	r[3], b = bits.Sub64(t[3], fp.m[3], b)
	if c != 0 || b == 0 {
		*z = r
	} else {
		*z = t
	}
}

// montSub sets z = x - y mod m. z may alias x or y.
func montSub(z, x, y *[4]uint64, fp *fieldParams) {
	var t [4]uint64
	var b uint64
	t[0], b = bits.Sub64(x[0], y[0], 0)
	t[1], b = bits.Sub64(x[1], y[1], b)
	t[2], b = bits.Sub64(x[2], y[2], b)
	t[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		t[0], c = bits.Add64(t[0], fp.m[0], 0)
		t[1], c = bits.Add64(t[1], fp.m[1], c)
		t[2], c = bits.Add64(t[2], fp.m[2], c)
		t[3], _ = bits.Add64(t[3], fp.m[3], c)
	}
	*z = t
}

// montNeg sets z = -x mod m.
func montNeg(z, x *[4]uint64, fp *fieldParams) {
	if limbsIsZero(x) {
		*z = [4]uint64{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(fp.m[0], x[0], 0)
	z[1], b = bits.Sub64(fp.m[1], x[1], b)
	z[2], b = bits.Sub64(fp.m[2], x[2], b)
	z[3], _ = bits.Sub64(fp.m[3], x[3], b)
}

func limbsIsZero(x *[4]uint64) bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

func limbsEqual(x, y *[4]uint64) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// limbsLess reports x < y as 256-bit integers.
func limbsLess(x, y *[4]uint64) bool {
	var b uint64
	_, b = bits.Sub64(x[0], y[0], 0)
	_, b = bits.Sub64(x[1], y[1], b)
	_, b = bits.Sub64(x[2], y[2], b)
	_, b = bits.Sub64(x[3], y[3], b)
	return b != 0
}

// montPow sets z = x^e mod m (e in plain binary, NOT Montgomery form)
// by 4-bit fixed-window exponentiation: 256 squarings plus ≤64 window
// multiplications, allocation-free. Used for scalar-field inversion
// (e = q-2); the coordinate field's two fixed exponents have their own
// addition chains (feInv, feSqrt), which tests check against this.
// Variable-time, like everything here.
func montPow(z, x *[4]uint64, e *[4]uint64, fp *fieldParams) {
	// Use the unrolled multiplier for the matching field. Assigning a
	// top-level function (rather than a closure over fp) keeps this
	// allocation-free.
	mul := ordMul
	if fp == &pParams {
		mul = p256Mul
	}
	var table [15][4]uint64 // table[i] = x^(i+1)
	table[0] = *x
	for i := 1; i < 15; i++ {
		mul(&table[i], &table[i-1], x)
	}
	acc := fp.one
	started := false
	for i := 3; i >= 0; i-- {
		limb := e[i]
		for nib := 15; nib >= 0; nib-- {
			if started {
				mul(&acc, &acc, &acc)
				mul(&acc, &acc, &acc)
				mul(&acc, &acc, &acc)
				mul(&acc, &acc, &acc)
			}
			d := (limb >> (uint(nib) * 4)) & 0xf
			if d != 0 {
				mul(&acc, &acc, &table[d-1])
				started = true
			}
		}
	}
	*z = acc
}

// fe is an element of the P-256 coordinate field in Montgomery form.
type fe [4]uint64

func feMul(z, x, y *fe) { p256Mul((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y)) }
func feSqr(z, x *fe)    { p256Sqr((*[4]uint64)(z), (*[4]uint64)(x)) }

// feAdd and feSub are unrolled for p with branchless conditional
// reduction: the borrow/carry decides via masks, not a data-dependent
// branch — in the batch pipelines that branch is a coin flip and the
// mispredictions were showing up in profiles.

// feAdd sets z = x + y mod p. z may alias x or y.
func feAdd(z, x, y *fe) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	r0, b := bits.Sub64(t0, pm0, 0)
	r1, b := bits.Sub64(t1, pm1, b)
	r2, b := bits.Sub64(t2, pm2, b)
	r3, b := bits.Sub64(t3, pm3, b)
	// Keep the difference when the add carried or the subtract did not
	// borrow (t ≥ p); both c and b are 0/1 here.
	mask := -(c | (b ^ 1))
	z[0] = r0&mask | t0&^mask
	z[1] = r1&mask | t1&^mask
	z[2] = r2&mask | t2&^mask
	z[3] = r3&mask | t3&^mask
}

// feSub sets z = x - y mod p. z may alias x or y.
func feSub(z, x, y *fe) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	// On borrow add p back; mask is all-ones exactly when b = 1, and
	// p's limbs are (2^64-1, pm1, 0, pm3).
	mask := -b
	var c uint64
	z[0], c = bits.Add64(t0, mask, 0)
	z[1], c = bits.Add64(t1, mask&pm1, c)
	z[2], c = bits.Add64(t2, 0, c)
	z[3], _ = bits.Add64(t3, mask&pm3, c)
}

func feNeg(z, x *fe)        { montNeg((*[4]uint64)(z), (*[4]uint64)(x), &pParams) }
func (x *fe) isZero() bool  { return limbsIsZero((*[4]uint64)(x)) }
func feEqual(x, y *fe) bool { return limbsEqual((*[4]uint64)(x), (*[4]uint64)(y)) }

// feSqrN sets z = x^(2^n). z may alias x.
func feSqrN(z, x *fe, n int) {
	feSqr(z, x)
	for i := 1; i < n; i++ {
		feSqr(z, z)
	}
}

// feInv sets z = x⁻¹ (z = 0 if x = 0) via Fermat's little theorem:
// x^(p-2) along the fixed addition chain for
// p-2 = 2^256 - 2^224 + 2^192 + 2^96 - 3 (255 squarings + 12
// multiplications, against the generic window walk's 256 + 78). z may
// alias x.
func feInv(z, x *fe) {
	var x2, x3, x6, x12, x15, x16, x32, i53, x47, t fe // xN = x^(2^N - 1)
	feSqr(&x2, x)
	feMul(&x2, &x2, x)
	feSqr(&x3, &x2)
	feMul(&x3, &x3, x)
	feSqrN(&x6, &x3, 3)
	feMul(&x6, &x6, &x3)
	feSqrN(&x12, &x6, 6)
	feMul(&x12, &x12, &x6)
	feSqrN(&x15, &x12, 3)
	feMul(&x15, &x15, &x3)
	feSqr(&x16, &x15)
	feMul(&x16, &x16, x)
	feSqrN(&x32, &x16, 16)
	feMul(&x32, &x32, &x16)
	feSqrN(&i53, &x32, 15)
	feMul(&x47, &x15, &i53)
	feSqrN(&t, &i53, 17)
	feMul(&t, &t, x)
	feSqrN(&t, &t, 143)
	feMul(&t, &t, &x47)
	feSqrN(&t, &t, 47)
	feMul(&t, &t, &x47)
	feSqrN(&t, &t, 2)
	feMul(z, &t, x)
}

// feSqrt sets z to a square root of x and reports whether one exists.
// p ≡ 3 mod 4, so the candidate is x^((p+1)/4) with
// (p+1)/4 = 2^254 - 2^222 + 2^190 + 2^94, along its fixed addition
// chain (253 squarings + 7 multiplications).
func feSqrt(z, x *fe) bool {
	var r, x2, x4, x8, x16, chk fe // xN = x^(2^N - 1)
	feSqr(&x2, x)
	feMul(&x2, &x2, x)
	feSqrN(&x4, &x2, 2)
	feMul(&x4, &x4, &x2)
	feSqrN(&x8, &x4, 4)
	feMul(&x8, &x8, &x4)
	feSqrN(&x16, &x8, 8)
	feMul(&x16, &x16, &x8)
	feSqrN(&r, &x16, 16)
	feMul(&r, &r, &x16) // x32
	feSqrN(&r, &r, 32)
	feMul(&r, &r, x)
	feSqrN(&r, &r, 96)
	feMul(&r, &r, x)
	feSqrN(&r, &r, 94)
	feSqr(&chk, &r)
	if !feEqual(&chk, x) {
		return false
	}
	*z = r
	return true
}

// feFromBytes parses a 32-byte big-endian encoding into Montgomery
// form, reporting whether the value was canonical (< p).
func feFromBytes(z *fe, b *[32]byte) bool {
	var v [4]uint64
	limbsFromBytes(&v, b)
	if !limbsLess(&v, &pParams.m) {
		return false
	}
	p256Mul((*[4]uint64)(z), &v, &pParams.rr)
	return true
}

// feToBytes writes the canonical 32-byte big-endian encoding.
func feToBytes(b *[32]byte, x *fe) {
	var v [4]uint64
	one := [4]uint64{1, 0, 0, 0}
	p256Mul(&v, (*[4]uint64)(x), &one)
	limbsToBytes(b, &v)
}

// feIsOdd reports the parity of the canonical (non-Montgomery) value.
func feIsOdd(x *fe) bool {
	var v [4]uint64
	one := [4]uint64{1, 0, 0, 0}
	p256Mul(&v, (*[4]uint64)(x), &one)
	return v[0]&1 == 1
}

func feFromBig(z *fe, v *big.Int) {
	var buf [32]byte
	new(big.Int).Mod(v, pParams.mBig).FillBytes(buf[:])
	var lim [4]uint64
	limbsFromBytes(&lim, &buf)
	montMul((*[4]uint64)(z), &lim, &pParams.rr, &pParams)
}

func feToBig(x *fe) *big.Int {
	var buf [32]byte
	feToBytes(&buf, x)
	return new(big.Int).SetBytes(buf[:])
}
