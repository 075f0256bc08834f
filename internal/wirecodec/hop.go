package wirecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"atom/internal/ecc"
	"atom/internal/elgamal"
)

// The hop codec: how a batch of ciphertext vectors travels between
// group members inside a chain message. It trades bytes for CPU — points
// go SEC1-uncompressed (65 B, not 33), so the receiver validates each
// with the curve equation instead of decompressing it with a square
// root — and it is transient by construction: nothing persisted, hashed
// or client-facing uses it (those keep Vectors and Vector.Marshal, the
// canonical compressed form).
//
// Layout, shape first so the decoder can size its slabs before it
// touches a point:
//
//	uvarint            vector count
//	per vector:        uvarint component count, then one flag byte per
//	                   component (0 = (R, C), 1 = (R, C, Y))
//	point block:       every component's R, C[, Y] in order, each 0x00
//	                   (identity) or 0x04‖x‖y
//
// Every value has exactly one spelling (minimal uvarints, flags 0/1,
// canonical coordinates), so decode → encode reproduces the input.

// HopVectors appends a batch of ciphertext vectors in the hop layout.
// All of the batch's points share one field inversion on their way to
// affine, and the vectors are only read — the caller may still be
// sharing them with other goroutines.
func (e *Enc) HopVectors(vs []elgamal.Vector) {
	e.U64(uint64(len(vs)))
	npts := 0
	for _, v := range vs {
		e.U64(uint64(len(v)))
		for _, ct := range v {
			if ct.Y != nil {
				e.buf.WriteByte(1)
				npts += 3
			} else {
				e.buf.WriteByte(0)
				npts += 2
			}
		}
	}
	pts := make([]*ecc.Point, 0, npts)
	for _, v := range vs {
		for _, ct := range v {
			pts = append(pts, ct.R, ct.C)
			if ct.Y != nil {
				pts = append(pts, ct.Y)
			}
		}
	}
	e.buf.Grow(npts * ecc.UncompressedLen)
	e.buf.Write(ecc.AppendUncompressedBatch(e.buf.AvailableBuffer(), pts))
}

// HopVectors reads a batch written by Enc.HopVectors. The shape is
// walked — and checked against the remaining input — before anything is
// allocated; then the whole batch decodes into one slab each of points,
// ciphertexts and ciphertext pointers rather than three heap objects per
// ciphertext. Every point has passed ecc's range and on-curve checks
// before it is reachable from the result.
func (d *Dec) HopVectors() ([]elgamal.Vector, error) {
	b := d.b[len(d.b)-d.rd.Len():]
	nvec, off, err := hopCount(b, 0)
	if err != nil {
		return nil, err
	}
	shape := off
	ncts, npts := 0, 0
	for i := 0; i < nvec; i++ {
		var nc int
		if nc, off, err = hopCount(b, off); err != nil {
			return nil, err
		}
		for _, flag := range b[off : off+nc] {
			if flag > 1 {
				return nil, fmt.Errorf("wirecodec: invalid ciphertext flag %#x", flag)
			}
			npts += 2 + int(flag)
		}
		off += nc
		ncts += nc
	}
	// Every point occupies at least one byte.
	if npts > len(b)-off {
		return nil, fmt.Errorf("wirecodec: %d points exceed %d remaining bytes", npts, len(b)-off)
	}
	pts := make([]ecc.Point, npts)
	used, err := ecc.DecodeUncompressedBatch(pts, b[off:])
	if err != nil {
		return nil, err
	}
	if _, err := d.rd.Seek(int64(off+used), io.SeekCurrent); err != nil {
		return nil, err
	}

	out := make([]elgamal.Vector, nvec)
	cts := make([]elgamal.Ciphertext, ncts)
	ptrs := make([]*elgamal.Ciphertext, ncts)
	off = shape
	for i := range out {
		var nc int
		nc, off, _ = hopCount(b, off) // validated by the first walk
		for j, flag := range b[off : off+nc] {
			ct := &cts[j]
			ct.R, ct.C = &pts[0], &pts[1]
			if flag == 1 {
				ct.Y = &pts[2]
			}
			pts = pts[2+int(flag):]
			ptrs[j] = ct
		}
		// Capacity-clipped, so appending to one vector cannot reach into
		// its neighbour's ciphertexts.
		out[i] = ptrs[:nc:nc]
		cts, ptrs = cts[nc:], ptrs[nc:]
		off += nc
	}
	return out, nil
}

// hopCount reads a minimally encoded uvarint count at b[off:] and
// bounds it by the bytes that follow it: whatever it counts occupies at
// least one byte each.
func hopCount(b []byte, off int) (n, next int, err error) {
	v, w := binary.Uvarint(b[off:])
	if w <= 0 {
		return 0, 0, errors.New("wirecodec: truncated or oversized count")
	}
	if w > 1 && v < 1<<(7*(w-1)) {
		return 0, 0, errors.New("wirecodec: non-minimal count encoding")
	}
	next = off + w
	if v > uint64(len(b)-next) {
		return 0, 0, fmt.Errorf("wirecodec: count %d exceeds %d remaining bytes", v, len(b)-next)
	}
	return int(v), next, nil
}
