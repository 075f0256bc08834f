package ecc

import (
	"errors"
	"fmt"
	"slices"
)

// The SEC1 *uncompressed* point form, 0x04‖x‖y (the identity stays the
// single byte 0x00). It exists for transient member-to-member hops only:
// a receiver checks a point with two range tests and the curve equation
// instead of the square root decompression costs, at 32 more bytes on
// the wire. Nothing persisted, hashed or client-facing uses it — those
// stay on Point.Bytes / PointFromBytes, the one canonical encoding, so
// there is never a second spelling of a point for a replay to hide
// behind.

// UncompressedLen is the encoded size of a non-identity point.
const UncompressedLen = 65

// AppendUncompressedBatch appends the uncompressed encoding of every
// point, in order, to dst. Points still in Jacobian form are brought to
// affine with one field inversion shared across the whole batch (none at
// all when every point already has Z = 1). The points are only read, so
// a batch other goroutines still hold can be encoded concurrently.
func AppendUncompressedBatch(dst []byte, ps []*Point) []byte {
	aff, isID := normalizeBatch(ps)
	dst = slices.Grow(dst, len(ps)*UncompressedLen)
	for i := range aff {
		if isID[i] {
			dst = append(dst, 0)
			continue
		}
		n := len(dst)
		dst = dst[:n+UncompressedLen]
		dst[n] = 4
		feToBytes((*[32]byte)(dst[n+1:n+33]), &aff[i].x)
		feToBytes((*[32]byte)(dst[n+33:n+65]), &aff[i].y)
	}
	return dst
}

// DecodeUncompressedBatch decodes len(dst) consecutive uncompressed
// points from the head of b into dst and returns how many bytes they
// occupied. Every non-identity point is validated before it is stored:
// both coordinates canonical (< p) and y² = x³ − 3x + b. P-256 has
// cofactor 1, so a point on the curve is in the group — this check is
// what keeps an invalid-curve point away from a secret exponent, and it
// is never skipped. On error dst holds garbage.
func DecodeUncompressedBatch(dst []Point, b []byte) (int, error) {
	off := 0
	for i := range dst {
		if off >= len(b) {
			return 0, errors.New("ecc: truncated point batch")
		}
		switch b[off] {
		case 0:
			dst[i] = Point{}
			off++
		case 4:
			if len(b)-off < UncompressedLen {
				return 0, errors.New("ecc: truncated point batch")
			}
			p := &dst[i]
			if !feFromBytes(&p.x, (*[32]byte)(b[off+1:off+33])) ||
				!feFromBytes(&p.y, (*[32]byte)(b[off+33:off+65])) {
				return 0, errors.New("ecc: point coordinate out of range")
			}
			var lhs, rhs fe
			feSqr(&lhs, &p.y)
			feCurveRHS(&rhs, &p.x)
			if !feEqual(&lhs, &rhs) {
				return 0, errors.New("ecc: point not on curve")
			}
			p.z = feOne
			off += UncompressedLen
		default:
			return 0, fmt.Errorf("ecc: invalid uncompressed point tag %#x", b[off])
		}
	}
	return off, nil
}
