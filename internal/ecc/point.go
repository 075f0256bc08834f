package ecc

import (
	"errors"
	"fmt"
)

// Point is an element of the P-256 group, held in Jacobian coordinates
// (X : Y : Z) over the fixed-width field — the affine point is
// (X/Z², Y/Z³). The identity element (point at infinity) is represented
// by Z = 0, so the zero value of Point is the identity.
//
// Points are immutable through the exported API: methods return fresh
// results and never mutate their receiver, so *Point values can be
// shared freely across the mixing worker pool.
type Point struct {
	x, y, z fe
}

// affinePoint is an affine (Z = 1) point used in precomputed tables and
// batch pipelines; the identity cannot be represented.
type affinePoint struct {
	x, y fe
}

// Identity returns the group identity element.
func Identity() *Point { return &Point{} }

// Generator returns the standard P-256 base point g.
func Generator() *Point {
	p := new(Point)
	p.x = feGx
	p.y = feGy
	p.z = feOne
	return p
}

// IsIdentity reports whether p is the identity element.
func (p *Point) IsIdentity() bool { return p.z.isZero() }

// Equal reports whether p and q are the same group element. The
// Jacobian representations may differ; equality is checked by
// cross-multiplying out the Z factors.
func (p *Point) Equal(q *Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() && q.IsIdentity()
	}
	var pz2, qz2, l, r fe
	feSqr(&pz2, &p.z)
	feSqr(&qz2, &q.z)
	feMul(&l, &p.x, &qz2)
	feMul(&r, &q.x, &pz2)
	if !feEqual(&l, &r) {
		return false
	}
	feMul(&pz2, &pz2, &p.z) // z1³
	feMul(&qz2, &qz2, &q.z) // z2³
	feMul(&l, &p.y, &qz2)
	feMul(&r, &q.y, &pz2)
	return feEqual(&l, &r)
}

// Clone returns an independent copy of p.
func (p *Point) Clone() *Point {
	c := new(Point)
	*c = *p
	return c
}

// dblInto sets p = 2a. Safe for p == a. Uses the a = -3 Jacobian
// doubling formula (3M + 5S); doubling the identity yields the
// identity without special-casing because Z stays 0.
func (p *Point) dblInto(a *Point) {
	var delta, gamma, beta, alpha, t1, t2 fe
	feSqr(&delta, &a.z)
	feSqr(&gamma, &a.y)
	feMul(&beta, &a.x, &gamma)
	// alpha = 3·(x-delta)·(x+delta)
	feSub(&t1, &a.x, &delta)
	feAdd(&t2, &a.x, &delta)
	feMul(&alpha, &t1, &t2)
	feAdd(&t1, &alpha, &alpha)
	feAdd(&alpha, &t1, &alpha)
	// z3 = (y+z)² - gamma - delta  (computed before x/y are clobbered)
	feAdd(&t1, &a.y, &a.z)
	feSqr(&t1, &t1)
	feSub(&t1, &t1, &gamma)
	feSub(&t1, &t1, &delta)
	// x3 = alpha² - 8·beta
	var x3 fe
	feSqr(&x3, &alpha)
	feAdd(&t2, &beta, &beta)
	feAdd(&t2, &t2, &t2)
	feAdd(&t2, &t2, &t2)
	feSub(&x3, &x3, &t2)
	// y3 = alpha·(4·beta - x3) - 8·gamma²
	feAdd(&t2, &beta, &beta)
	feAdd(&t2, &t2, &t2)
	feSub(&t2, &t2, &x3)
	feMul(&t2, &alpha, &t2)
	feSqr(&gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feSub(&p.y, &t2, &gamma)
	p.x = x3
	p.z = t1
}

// addInto sets p = a + b (general Jacobian addition, 11M + 5S), with
// explicit handling of the identity, doubling, and inverse cases. Safe
// for p aliasing a or b.
func (p *Point) addInto(a, b *Point) {
	if a.IsIdentity() {
		*p = *b
		return
	}
	if b.IsIdentity() {
		*p = *a
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 fe
	feSqr(&z1z1, &a.z)
	feSqr(&z2z2, &b.z)
	feMul(&u1, &a.x, &z2z2)
	feMul(&u2, &b.x, &z1z1)
	feMul(&s1, &b.z, &z2z2)
	feMul(&s1, &a.y, &s1)
	feMul(&s2, &a.z, &z1z1)
	feMul(&s2, &b.y, &s2)
	if feEqual(&u1, &u2) {
		if feEqual(&s1, &s2) {
			p.dblInto(a)
		} else {
			*p = Point{} // a + (-a) = identity
		}
		return
	}
	var h, i, j, r, v, t fe
	feSub(&h, &u2, &u1)
	feAdd(&i, &h, &h)
	feSqr(&i, &i)
	feMul(&j, &h, &i)
	feSub(&r, &s2, &s1)
	feAdd(&r, &r, &r)
	feMul(&v, &u1, &i)
	// z3 = ((z1+z2)² - z1z1 - z2z2)·h   (before a/b may be clobbered)
	var z3 fe
	feAdd(&z3, &a.z, &b.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &z2z2)
	feMul(&z3, &z3, &h)
	// x3 = r² - j - 2v
	var x3 fe
	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v)
	// y3 = r·(v - x3) - 2·s1·j
	feSub(&t, &v, &x3)
	feMul(&t, &r, &t)
	feMul(&j, &s1, &j)
	feAdd(&j, &j, &j)
	feSub(&p.y, &t, &j)
	p.x = x3
	p.z = z3
}

// addMixedInto sets p = a + b where b is affine (7M + 4S). Safe for
// p == a.
func (p *Point) addMixedInto(a *Point, b *affinePoint) {
	if a.IsIdentity() {
		p.x = b.x
		p.y = b.y
		p.z = feOne
		return
	}
	var z1z1, u2, s2 fe
	feSqr(&z1z1, &a.z)
	feMul(&u2, &b.x, &z1z1)
	feMul(&s2, &a.z, &z1z1)
	feMul(&s2, &b.y, &s2)
	if feEqual(&a.x, &u2) {
		if feEqual(&a.y, &s2) {
			p.dblInto(a)
		} else {
			*p = Point{}
		}
		return
	}
	var h, hh, i, j, r, v, t fe
	feSub(&h, &u2, &a.x)
	feSqr(&hh, &h)
	feAdd(&i, &hh, &hh)
	feAdd(&i, &i, &i)
	feMul(&j, &h, &i)
	feSub(&r, &s2, &a.y)
	feAdd(&r, &r, &r)
	feMul(&v, &a.x, &i)
	// z3 = (z1+h)² - z1z1 - hh
	var z3 fe
	feAdd(&z3, &a.z, &h)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &hh)
	// x3 = r² - j - 2v
	var x3 fe
	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v)
	// y3 = r·(v - x3) - 2·y1·j
	feSub(&t, &v, &x3)
	feMul(&t, &r, &t)
	feMul(&j, &a.y, &j)
	feAdd(&j, &j, &j)
	feSub(&p.y, &t, &j)
	p.x = x3
	p.z = z3
}

// negInto sets p = -a. Safe for p == a.
func (p *Point) negInto(a *Point) {
	p.x = a.x
	feNeg(&p.y, &a.y)
	p.z = a.z
}

// Add returns p + q.
func (p *Point) Add(q *Point) *Point {
	r := new(Point)
	r.addInto(p, q)
	return r
}

// Sub returns p - q.
func (p *Point) Sub(q *Point) *Point {
	var nq Point
	nq.negInto(q)
	r := new(Point)
	r.addInto(p, &nq)
	return r
}

// Neg returns -p (the point with negated y coordinate).
func (p *Point) Neg() *Point {
	r := new(Point)
	r.negInto(p)
	return r
}

// affine reduces p to affine coordinates, returning the Montgomery-form
// x and y. Must not be called on the identity.
func (p *Point) affine() (x, y fe) {
	if feEqual(&p.z, &feOne) {
		return p.x, p.y
	}
	var zinv, zinv2 fe
	feInv(&zinv, &p.z)
	feSqr(&zinv2, &zinv)
	feMul(&x, &p.x, &zinv2)
	feMul(&zinv2, &zinv2, &zinv)
	feMul(&y, &p.y, &zinv2)
	return
}

// identityEncoding is the single-byte wire form of the identity element.
var identityEncoding = []byte{0}

// Bytes returns a canonical encoding of the point: a single 0 byte for the
// identity, or 0x02/0x03-prefixed 33-byte compressed form otherwise.
// The format is bit-for-bit the SEC1 compressed encoding the previous
// crypto/elliptic backend produced, so persisted state and wire
// messages from older builds decode unchanged.
func (p *Point) Bytes() []byte {
	if p.IsIdentity() {
		return append([]byte(nil), identityEncoding...)
	}
	x, y := p.affine()
	out := make([]byte, 33)
	if feIsOdd(&y) {
		out[0] = 3
	} else {
		out[0] = 2
	}
	feToBytes((*[32]byte)(out[1:]), &x)
	return out
}

// PointFromBytes decodes a point encoded with Point.Bytes, validating that
// it lies on the curve.
func PointFromBytes(b []byte) (*Point, error) {
	if len(b) == 1 && b[0] == 0 {
		return Identity(), nil
	}
	if len(b) != 33 {
		return nil, fmt.Errorf("ecc: bad point encoding length %d", len(b))
	}
	if b[0] != 2 && b[0] != 3 {
		return nil, errors.New("ecc: invalid point encoding")
	}
	var xb [32]byte
	copy(xb[:], b[1:])
	var x fe
	if !feFromBytes(&x, &xb) {
		return nil, errors.New("ecc: invalid point encoding")
	}
	var y fe
	if !feYFromX(&y, &x) {
		return nil, errors.New("ecc: invalid point encoding")
	}
	if feIsOdd(&y) != (b[0] == 3) {
		feNeg(&y, &y)
	}
	p := new(Point)
	p.x = x
	p.y = y
	p.z = feOne
	return p, nil
}

// feYFromX sets y to a square root of x³ - 3x + b, reporting whether
// the x coordinate is on the curve.
func feYFromX(y, x *fe) bool {
	var y2 fe
	feCurveRHS(&y2, x)
	return feSqrt(y, &y2)
}

// feCurveRHS sets z = x³ - 3x + b, the right-hand side of the curve
// equation.
func feCurveRHS(z, x *fe) {
	var x3, t fe
	feSqr(&x3, x)
	feMul(&x3, &x3, x)
	feAdd(&t, x, x)
	feAdd(&t, &t, x)
	feSub(&x3, &x3, &t)
	feAdd(z, &x3, &feB)
}

// String implements fmt.Stringer with a short hex prefix for debugging.
func (p *Point) String() string {
	if p.IsIdentity() {
		return "point(identity)"
	}
	b := p.Bytes()
	return fmt.Sprintf("point(%x…)", b[1:5])
}

// OnCurve reports whether the point is the identity or satisfies the curve
// equation. Decoded points are always on the curve; this is a defensive
// check for hand-constructed values.
func (p *Point) OnCurve() bool {
	if p.IsIdentity() {
		return true
	}
	x, y := p.affine()
	var lhs, rhs fe
	feSqr(&lhs, &y)
	feCurveRHS(&rhs, &x)
	return feEqual(&lhs, &rhs)
}
