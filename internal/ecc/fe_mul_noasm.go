//go:build !amd64

package ecc

// p256Mul sets z = x·y·R⁻¹ mod p. z may alias x or y.
func p256Mul(z, x, y *[4]uint64) { p256MulGeneric(z, x, y) }

// p256Sqr sets z = x²·R⁻¹ mod p. z may alias x.
func p256Sqr(z, x *[4]uint64) { p256SqrGeneric(z, x) }

// ordMul sets z = x·y·R⁻¹ mod q (the group order). z may alias x or y.
func ordMul(z, x, y *[4]uint64) { ordMulGeneric(z, x, y) }
