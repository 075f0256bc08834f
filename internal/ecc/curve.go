// Package ecc provides the elliptic-curve group underlying all of Atom's
// cryptography. It implements the NIST P-256 curve (the curve used by the
// Atom paper, §5) directly on fixed-width 4×64-bit Montgomery field
// arithmetic — no math/big and no heap allocation on any hot path — with
// the operations the rest of the system needs: scalar arithmetic modulo
// the group order, point arithmetic including the identity element,
// precomputed fixed-base tables, Pippenger multi-scalar multiplication,
// batch variants of the hot operations, deterministic hashing to scalars
// and points, and Koblitz-style embedding of message bytes into curve
// points.
//
// The coordinate field's multiplication and squaring kernels reduce
// with P-256's special form (two shifts and one multiplication per
// Montgomery step) — MULX/ADCX/ADOX assembly on amd64 with ADX, the
// portable math/bits code in fe_mul.go everywhere else; every point
// operation, comb evaluation, MSM and decode runs on those two kernels.
//
// Wire formats are frozen: Scalar.Bytes is 32-byte big-endian and
// Point.Bytes is the SEC1 compressed encoding (0x00 for the identity),
// byte-identical to the crypto/elliptic backend this package replaced,
// so persisted state directories and wire codecs from older builds
// replay unchanged. The SEC1 uncompressed form (uncompressed.go) exists
// beside it for transient member-to-member hops only, where checking
// the curve equation is ~50x cheaper than decompressing; PointFromBytes
// never accepts it.
package ecc

import (
	"crypto/sha3"
	"math/big"
	"math/bits"
	"sync"
)

var (
	// Order is the order of the P-256 base point (the scalar field modulus).
	Order *big.Int
	// P is the prime of the underlying field.
	P *big.Int

	// Montgomery-form curve constants.
	feOne fe // 1
	feB   fe // curve coefficient b in y² = x³ - 3x + b
	feGx  fe // base point x
	feGy  fe // base point y
)

func init() {
	P, _ = new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	Order, _ = new(big.Int).SetString("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)
	initFieldParams(&pParams, P)
	initFieldParams(&qParams, Order)
	feOne = fe(pParams.one)

	// The unrolled multipliers in fe_mul.go inline their modulus and
	// n0 constants; a transcription slip there would corrupt every
	// group operation, so cross-check against the computed parameters.
	if pParams.m != [4]uint64{pm0, pm1, pm2, pm3} || pParams.n0 != pn0 ||
		qParams.m != [4]uint64{qm0, qm1, qm2, qm3} || qParams.n0 != qn0 {
		panic("ecc: field constants in fe_mul.go disagree with computed parameters")
	}

	b, _ := new(big.Int).SetString("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b", 16)
	gx, _ := new(big.Int).SetString("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296", 16)
	gy, _ := new(big.Int).SetString("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5", 16)
	feFromBig(&feB, b)
	feFromBig(&feGx, gx)
	feFromBig(&feGy, gy)
}

// derivedBases memoizes HashToPoint outputs keyed by the seed digest.
// Proof systems re-derive the same Pedersen/commitment bases with
// identical domain tags every round; try-and-increment with a square
// root per candidate is far too expensive to repeat. Returned points
// are shared — safe because the Point API never mutates a receiver.
var derivedBases sync.Map // [32]byte → *Point

// HashToPoint derives a curve point from the input by hashing to an x
// coordinate and incrementing until a point is found (try-and-increment).
// The resulting point has unknown discrete log with respect to g, which is
// what makes it usable as an independent Pedersen commitment base.
//
// Results are memoized per input, so repeated derivations of the same
// base (the common case: fixed domain tags) cost one map lookup.
func HashToPoint(parts ...[]byte) *Point {
	h := sha3.New256()
	for _, p := range parts {
		h.Write(p)
	}
	var seed [32]byte
	h.Sum(seed[:0])
	if cached, ok := derivedBases.Load(seed); ok {
		return cached.(*Point)
	}
	var x fe
	feFromBytesReduce(&x, &seed)
	pt := new(Point)
	for {
		if pointWithX(pt, &x) {
			break
		}
		feAdd(&x, &x, &feOne)
	}
	actual, _ := derivedBases.LoadOrStore(seed, pt)
	return actual.(*Point)
}

// feFromBytesReduce parses 32 big-endian bytes and reduces mod p (the
// value may exceed p; one conditional subtraction suffices since it is
// below 2p).
func feFromBytesReduce(z *fe, b *[32]byte) {
	var v [4]uint64
	limbsFromBytes(&v, b)
	if !limbsLess(&v, &pParams.m) {
		var bb uint64
		var r [4]uint64
		r[0], bb = bits.Sub64(v[0], pParams.m[0], 0)
		r[1], bb = bits.Sub64(v[1], pParams.m[1], bb)
		r[2], bb = bits.Sub64(v[2], pParams.m[2], bb)
		r[3], _ = bits.Sub64(v[3], pParams.m[3], bb)
		v = r
	}
	montMul((*[4]uint64)(z), &v, &pParams.rr, &pParams)
}

// pointWithX sets p to the curve point with the given x coordinate and
// even y, reporting whether x is on the curve.
func pointWithX(p *Point, x *fe) bool {
	var y fe
	if !feYFromX(&y, x) {
		return false
	}
	if feIsOdd(&y) {
		feNeg(&y, &y)
	}
	p.x = *x
	p.y = y
	p.z = feOne
	return true
}
