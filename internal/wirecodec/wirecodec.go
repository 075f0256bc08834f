// Package wirecodec is the shared length-prefixed binary codec behind
// Atom's hand-rolled wire formats (nizk proof marshaling, the
// distributed round protocol): uvarint counts, zig-zag varints,
// nil-presence flags for points and scalars, and remaining-bytes bounds
// checks before every allocation, so one tightening of a bounds rule
// reaches every format at once.
//
// Ciphertext vectors have two codecs, and which one a format uses is
// not a choice. Vectors is the canonical one — each vector in its
// elgamal.Vector.Marshal form, points SEC1-compressed — for anything
// persisted or hashed (the sealed-round journal record). HopVectors
// (hop.go) is the transient one for member-to-member chain messages:
// points uncompressed, each validated against the curve equation on
// arrival, a whole batch decoded into slabs. A point a hop accepted is
// exactly as trustworthy as one PointFromBytes accepted; it just cost a
// few field multiplications to check instead of a square root.
package wirecodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"atom/internal/ecc"
	"atom/internal/elgamal"
)

// Enc accumulates an encoding. The zero value is ready to use.
type Enc struct{ buf bytes.Buffer }

// Out returns the encoded bytes.
func (e *Enc) Out() []byte { return e.buf.Bytes() }

// Byte appends one raw byte (flags).
func (e *Enc) Byte(b byte) { e.buf.WriteByte(b) }

// U64 appends a uvarint.
func (e *Enc) U64(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	e.buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// I appends a (small, possibly negative) int as a zig-zag varint.
func (e *Enc) I(v int) {
	var tmp [binary.MaxVarintLen64]byte
	e.buf.Write(tmp[:binary.PutVarint(tmp[:], int64(v))])
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf.Write(b)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) { e.Bytes([]byte(s)) }

// Point appends a nil-presence flag and, when present, the point's
// canonical encoding.
func (e *Enc) Point(p *ecc.Point) {
	if p == nil {
		e.buf.WriteByte(0)
		return
	}
	e.buf.WriteByte(1)
	e.Bytes(p.Bytes())
}

// Scalar appends a nil-presence flag and, when present, the scalar.
func (e *Enc) Scalar(s *ecc.Scalar) {
	if s == nil {
		e.buf.WriteByte(0)
		return
	}
	e.buf.WriteByte(1)
	e.Bytes(s.Bytes())
}

// Points appends a counted sequence of points.
func (e *Enc) Points(ps []*ecc.Point) {
	e.U64(uint64(len(ps)))
	for _, p := range ps {
		e.Point(p)
	}
}

// Scalars appends a counted sequence of scalars.
func (e *Enc) Scalars(ss []*ecc.Scalar) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Scalar(s)
	}
}

// Strs appends a counted sequence of strings.
func (e *Enc) Strs(ss []string) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Ints appends a counted sequence of ints.
func (e *Enc) Ints(vs []int) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.I(v)
	}
}

// Vectors appends a counted sequence of ciphertext vectors, each in its
// canonical elgamal encoding.
func (e *Enc) Vectors(vs []elgamal.Vector) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.Bytes(v.Marshal())
	}
}

// Dec decodes an encoding produced by Enc. b is the whole input, kept
// beside the reader for the decoders that work on the bytes in place
// (HopVectors).
type Dec struct {
	rd *bytes.Reader
	b  []byte
}

// NewDec wraps the encoded bytes.
func NewDec(b []byte) *Dec { return &Dec{rd: bytes.NewReader(b), b: b} }

// Byte reads one raw byte.
func (d *Dec) Byte() (byte, error) { return d.rd.ReadByte() }

// U64 reads a uvarint.
func (d *Dec) U64() (uint64, error) { return binary.ReadUvarint(d.rd) }

// I reads a zig-zag varint.
func (d *Dec) I() (int, error) {
	v, err := binary.ReadVarint(d.rd)
	return int(v), err
}

// Bytes reads a length-prefixed byte string, rejecting lengths beyond
// the remaining input before allocating.
func (d *Dec) Bytes() ([]byte, error) {
	n, err := d.U64()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.rd.Len()) {
		return nil, fmt.Errorf("wirecodec: length %d exceeds %d remaining bytes", n, d.rd.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.rd, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Str reads a length-prefixed string.
func (d *Dec) Str() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Count reads an element count, rejecting counts beyond the remaining
// input (every element occupies at least one byte) before allocating.
func (d *Dec) Count() (int, error) {
	n, err := d.U64()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.rd.Len()) {
		return 0, fmt.Errorf("wirecodec: count %d exceeds %d remaining bytes", n, d.rd.Len())
	}
	return int(n), nil
}

// Point reads a flagged point (nil when absent).
func (d *Dec) Point() (*ecc.Point, error) {
	flag, err := d.rd.ReadByte()
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return ecc.PointFromBytes(b)
}

// Scalar reads a flagged scalar (nil when absent).
func (d *Dec) Scalar() (*ecc.Scalar, error) {
	flag, err := d.rd.ReadByte()
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return ecc.ScalarFromBytes(b), nil
}

// Points reads a counted sequence of points.
func (d *Dec) Points() ([]*ecc.Point, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]*ecc.Point, n)
	for i := range out {
		if out[i], err = d.Point(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scalars reads a counted sequence of scalars.
func (d *Dec) Scalars() ([]*ecc.Scalar, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]*ecc.Scalar, n)
	for i := range out {
		if out[i], err = d.Scalar(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Strs reads a counted sequence of strings.
func (d *Dec) Strs() ([]string, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.Str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Ints reads a counted sequence of ints.
func (d *Dec) Ints() ([]int, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = d.I(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Vectors reads a counted sequence of ciphertext vectors.
func (d *Dec) Vectors() ([]elgamal.Vector, error) {
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	out := make([]elgamal.Vector, n)
	for i := range out {
		b, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		if out[i], err = elgamal.UnmarshalVector(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Done fails if input remains.
func (d *Dec) Done() error {
	if d.rd.Len() != 0 {
		return fmt.Errorf("wirecodec: %d trailing bytes", d.rd.Len())
	}
	return nil
}

// Len returns the remaining undecoded byte count.
func (d *Dec) Len() int { return d.rd.Len() }
