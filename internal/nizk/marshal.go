package nizk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"atom/internal/ecc"
	"atom/internal/wirecodec"
)

// Wire encoding for EncProof, the one proof that travels from users to
// servers (shuffle and reencryption proofs travel between servers, which
// in this codebase share a process or exchange distributed chain
// messages).
// Layout: u16 count ‖ count × (33-byte commit point ‖ 32-byte response).

// Marshal encodes the proof.
func (p *EncProof) Marshal() []byte {
	var buf bytes.Buffer
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(p.Commit)))
	buf.Write(n[:])
	for i := range p.Commit {
		cb := p.Commit[i].Bytes()
		buf.WriteByte(byte(len(cb)))
		buf.Write(cb)
		buf.Write(p.Resp[i].Bytes())
	}
	return buf.Bytes()
}

// UnmarshalEncProof decodes a proof encoded by Marshal.
func UnmarshalEncProof(data []byte) (*EncProof, error) {
	rd := bytes.NewReader(data)
	var n [2]byte
	if _, err := io.ReadFull(rd, n[:]); err != nil {
		return nil, fmt.Errorf("nizk: unmarshal encproof: %w", err)
	}
	count := int(binary.BigEndian.Uint16(n[:]))
	p := &EncProof{
		Commit: make([]*ecc.Point, count),
		Resp:   make([]*ecc.Scalar, count),
	}
	for i := 0; i < count; i++ {
		ln, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("nizk: unmarshal encproof commit %d: %w", i, err)
		}
		pb := make([]byte, ln)
		if _, err := io.ReadFull(rd, pb); err != nil {
			return nil, fmt.Errorf("nizk: unmarshal encproof commit %d: %w", i, err)
		}
		if p.Commit[i], err = ecc.PointFromBytes(pb); err != nil {
			return nil, fmt.Errorf("nizk: unmarshal encproof commit %d: %w", i, err)
		}
		sb := make([]byte, 32)
		if _, err := io.ReadFull(rd, sb); err != nil {
			return nil, fmt.Errorf("nizk: unmarshal encproof resp %d: %w", i, err)
		}
		p.Resp[i] = ecc.ScalarFromBytes(sb)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("nizk: unmarshal encproof: %d trailing bytes", rd.Len())
	}
	return p, nil
}

// ---------------------------------------------------------------------
// Shuffle and re-encryption proofs also need a wire form once group
// members live in different processes (internal/distributed): the actor
// chain ships each member's proof alongside its batch so the next
// member can verify before building on it. The encoding rides the
// shared wirecodec (nil-presence flags for every point/scalar), so
// whatever shape the prover produced round-trips exactly.

// Marshal encodes the shuffle proof for transport.
func (p *ShufProof) Marshal() []byte {
	var w wirecodec.Enc
	w.Point(p.Gamma)
	w.Points(p.U)
	if p.SS != nil && p.SS.Proof != nil {
		w.Byte(1)
		w.Points(p.SS.Proof.Commit)
		w.Scalars(p.SS.Proof.Resp)
	} else {
		w.Byte(0)
	}
	w.Points(p.PR)
	w.Points(p.PC)
	w.Points(p.AU)
	w.Points(p.BR)
	w.Points(p.BC)
	w.Scalars(p.ZU)
	w.Point(p.AGamma)
	w.Points(p.AR)
	w.Points(p.AC)
	w.Scalar(p.ZC)
	w.Scalars(p.ZS)
	return w.Out()
}

// UnmarshalShufProof decodes a proof encoded by ShufProof.Marshal.
func UnmarshalShufProof(data []byte) (*ShufProof, error) {
	d := wirecodec.NewDec(data)
	p := &ShufProof{}
	var err error
	fail := func(field string, err error) (*ShufProof, error) {
		return nil, fmt.Errorf("nizk: unmarshal shufproof %s: %w", field, err)
	}
	if p.Gamma, err = d.Point(); err != nil {
		return fail("gamma", err)
	}
	if p.U, err = d.Points(); err != nil {
		return fail("u", err)
	}
	ssFlag, err := d.Byte()
	if err != nil {
		return fail("ss", err)
	}
	if ssFlag != 0 {
		ilmpp := &ILMPP{}
		if ilmpp.Commit, err = d.Points(); err != nil {
			return fail("ss.commit", err)
		}
		if ilmpp.Resp, err = d.Scalars(); err != nil {
			return fail("ss.resp", err)
		}
		p.SS = &simpleShuffle{Proof: ilmpp}
	}
	if p.PR, err = d.Points(); err != nil {
		return fail("pr", err)
	}
	if p.PC, err = d.Points(); err != nil {
		return fail("pc", err)
	}
	if p.AU, err = d.Points(); err != nil {
		return fail("au", err)
	}
	if p.BR, err = d.Points(); err != nil {
		return fail("br", err)
	}
	if p.BC, err = d.Points(); err != nil {
		return fail("bc", err)
	}
	if p.ZU, err = d.Scalars(); err != nil {
		return fail("zu", err)
	}
	if p.AGamma, err = d.Point(); err != nil {
		return fail("agamma", err)
	}
	if p.AR, err = d.Points(); err != nil {
		return fail("ar", err)
	}
	if p.AC, err = d.Points(); err != nil {
		return fail("ac", err)
	}
	if p.ZC, err = d.Scalar(); err != nil {
		return fail("zc", err)
	}
	if p.ZS, err = d.Scalars(); err != nil {
		return fail("zs", err)
	}
	if err := d.Done(); err != nil {
		return fail("trailer", err)
	}
	// No field of a well-formed shuffle proof is absent: a nil smuggled
	// through the presence flags would panic the verifier's point
	// arithmetic — reject it here, where the hostile bytes arrive.
	if p.Gamma == nil || p.AGamma == nil || p.ZC == nil {
		return fail("shape", fmt.Errorf("missing required field"))
	}
	for name, ps := range map[string][][]*ecc.Point{
		"u": {p.U}, "pr": {p.PR}, "pc": {p.PC}, "au": {p.AU},
		"br": {p.BR}, "bc": {p.BC}, "ar": {p.AR}, "ac": {p.AC},
	} {
		if err := requirePoints(ps[0]); err != nil {
			return fail(name, err)
		}
	}
	if err := requireScalars(p.ZU); err != nil {
		return fail("zu", err)
	}
	if err := requireScalars(p.ZS); err != nil {
		return fail("zs", err)
	}
	if p.SS != nil {
		if err := requirePoints(p.SS.Proof.Commit); err != nil {
			return fail("ss.commit", err)
		}
		if err := requireScalars(p.SS.Proof.Resp); err != nil {
			return fail("ss.resp", err)
		}
	}
	return p, nil
}

// requirePoints rejects nil elements smuggled through presence flags.
func requirePoints(ps []*ecc.Point) error {
	for i, p := range ps {
		if p == nil {
			return fmt.Errorf("nil point at %d", i)
		}
	}
	return nil
}

// requireScalars rejects nil elements smuggled through presence flags.
func requireScalars(ss []*ecc.Scalar) error {
	for i, s := range ss {
		if s == nil {
			return fmt.Errorf("nil scalar at %d", i)
		}
	}
	return nil
}

// Marshal encodes the re-encryption proof for transport.
func (p *ReEncProof) Marshal() []byte {
	var w wirecodec.Enc
	w.Points(p.CommitKey)
	w.Points(p.CommitR)
	w.Points(p.CommitC)
	w.Scalars(p.RespX)
	w.Scalars(p.RespR)
	return w.Out()
}

// UnmarshalReEncProof decodes a proof encoded by ReEncProof.Marshal.
func UnmarshalReEncProof(data []byte) (*ReEncProof, error) {
	d := wirecodec.NewDec(data)
	p := &ReEncProof{}
	var err error
	fail := func(field string, err error) (*ReEncProof, error) {
		return nil, fmt.Errorf("nizk: unmarshal reencproof %s: %w", field, err)
	}
	if p.CommitKey, err = d.Points(); err != nil {
		return fail("commit-key", err)
	}
	if p.CommitR, err = d.Points(); err != nil {
		return fail("commit-r", err)
	}
	if p.CommitC, err = d.Points(); err != nil {
		return fail("commit-c", err)
	}
	if p.RespX, err = d.Scalars(); err != nil {
		return fail("resp-x", err)
	}
	if p.RespR, err = d.Scalars(); err != nil {
		return fail("resp-r", err)
	}
	if err := d.Done(); err != nil {
		return fail("trailer", err)
	}
	// Every component of a well-formed re-encryption proof is present
	// (the exit layer uses the identity point, not nil) — reject nils
	// before they reach the verifier's arithmetic.
	for name, ps := range map[string][]*ecc.Point{
		"commit-key": p.CommitKey, "commit-r": p.CommitR, "commit-c": p.CommitC,
	} {
		if err := requirePoints(ps); err != nil {
			return fail(name, err)
		}
	}
	if err := requireScalars(p.RespX); err != nil {
		return fail("resp-x", err)
	}
	if err := requireScalars(p.RespR); err != nil {
		return fail("resp-r", err)
	}
	return p, nil
}
