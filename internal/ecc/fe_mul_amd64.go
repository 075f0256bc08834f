//go:build amd64

package ecc

// On amd64 the Montgomery kernels dispatch to hand-written
// MULX/ADCX/ADOX assembly when the CPU supports BMI2+ADX (everything
// since Broadwell); the portable code in fe_mul.go remains the
// fallback. Every kernel returns the canonical residue, so results are
// bit-identical either way — the differential tests exercise both
// paths.

var hasADX = cpuSupportsADX()

// p256Mul sets z = x·y·R⁻¹ mod p. z may alias x or y.
func p256Mul(z, x, y *[4]uint64) {
	if hasADX {
		p256MulADX(z, x, y)
	} else {
		p256MulGeneric(z, x, y)
	}
}

// p256Sqr sets z = x²·R⁻¹ mod p. z may alias x.
func p256Sqr(z, x *[4]uint64) {
	if hasADX {
		p256SqrADX(z, x)
	} else {
		p256SqrGeneric(z, x)
	}
}

// ordMul sets z = x·y·R⁻¹ mod q (the group order). z may alias x or y.
func ordMul(z, x, y *[4]uint64) {
	if hasADX {
		ordMulADX(z, x, y)
	} else {
		ordMulGeneric(z, x, y)
	}
}

// Implemented in fe_mul_amd64.s.

//go:noescape
func p256MulADX(z, x, y *[4]uint64)

//go:noescape
func p256SqrADX(z, x *[4]uint64)

//go:noescape
func ordMulADX(z, x, y *[4]uint64)

func cpuSupportsADX() bool
