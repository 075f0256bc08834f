package protocol

import (
	"bytes"
	"crypto/sha3"
	"encoding/binary"
	"fmt"
	"io"

	"atom/internal/cca2"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/taxonomy"
)

// Message kind tags, the first byte of every routed plaintext. The paper
// appends "‖M" and "‖T" markers to distinguish inner ciphertexts from
// traps (§4.4); we prefix instead so padding never obscures the tag.
const (
	kindMessage byte = 'M'
	kindTrap    byte = 'T'
)

// trapNonceLen is the length of the random nonce R in a trap message
// "gid‖R‖T" (§4.4). 16 bytes of entropy make the SHA3 commitment
// hiding and binding in practice.
const trapNonceLen = 16

// innerCiphertextLen returns the routed payload length for the trap
// variant: tag ‖ EncCCA2(pkT, padded message).
func innerCiphertextLen(messageSize int) int {
	return 1 + messageSize + cca2.Overhead
}

// padMessage pads msg to exactly size bytes (length-prefixed so the
// original is recoverable). It fails if msg cannot fit.
func padMessage(msg []byte, size int) ([]byte, error) {
	if len(msg)+2 > size {
		return nil, fmt.Errorf("protocol: message of %d bytes exceeds capacity %d", len(msg), size-2)
	}
	out := make([]byte, size)
	binary.BigEndian.PutUint16(out[:2], uint16(len(msg)))
	copy(out[2:], msg)
	return out, nil
}

// unpadMessage reverses padMessage.
func unpadMessage(padded []byte) ([]byte, error) {
	if len(padded) < 2 {
		return nil, fmt.Errorf("protocol: padded message too short (%d bytes)", len(padded))
	}
	n := int(binary.BigEndian.Uint16(padded[:2]))
	if n > len(padded)-2 {
		return nil, fmt.Errorf("protocol: corrupt padding (claims %d of %d bytes)", n, len(padded)-2)
	}
	return padded[2 : 2+n], nil
}

// Submission is a user's contribution to one round in the NIZK variant:
// a single onion ciphertext and its proof of plaintext knowledge.
type Submission struct {
	GID        int // entry group
	Ciphertext elgamal.Vector
	Proof      *nizk.EncProof
}

// TrapSubmission is a user's contribution in the trap variant (§4.4):
// the real message's inner ciphertext and a trap, each encrypted for the
// entry group with an EncProof, submitted in random order, plus the
// commitment to the trap.
type TrapSubmission struct {
	GID         int
	Ciphertexts [2]elgamal.Vector
	Proofs      [2]*nizk.EncProof
	Commitment  []byte // SHA3-256 commitment to the trap plaintext
}

// Client prepares round submissions. It is stateless; one value can
// serve many users.
type Client struct {
	cfg *Config
}

// NewClient creates a client for a deployment configuration.
func NewClient(cfg *Config) (*Client, error) {
	cp := *cfg
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &Client{cfg: &cp}, nil
}

// encryptPayload embeds payload into the configured number of points and
// encrypts the vector for the entry group key, returning the vector and
// an EncProof bound to the entry group id.
func (c *Client) encryptPayload(payload []byte, entryPK *ecc.Point, gid int, rnd io.Reader) (elgamal.Vector, *nizk.EncProof, error) {
	pts, err := ecc.EmbedMessage(payload, c.cfg.NumPoints())
	if err != nil {
		return nil, nil, err
	}
	vec, rs, err := elgamal.EncryptVector(entryPK, pts, rnd)
	if err != nil {
		return nil, nil, err
	}
	proof, err := nizk.ProveEnc(entryPK, vec, rs, uint64(gid), rnd)
	if err != nil {
		return nil, nil, err
	}
	return vec, proof, nil
}

// Submit prepares a NIZK-variant submission of msg for the entry group
// with public key entryPK and id gid.
func (c *Client) Submit(msg []byte, entryPK *ecc.Point, gid int, rnd io.Reader) (*Submission, error) {
	if c.cfg.Variant != VariantNIZK {
		return nil, fmt.Errorf("%w: Submit requires the NIZK variant (have %v)", taxonomy.ErrVariantMismatch, c.cfg.Variant)
	}
	padded, err := padMessage(msg, c.cfg.MessageSize)
	if err != nil {
		return nil, err
	}
	payload := append([]byte{kindMessage}, padded...)
	vec, proof, err := c.encryptPayload(payload, entryPK, gid, rnd)
	if err != nil {
		return nil, err
	}
	return &Submission{GID: gid, Ciphertext: vec, Proof: proof}, nil
}

// TrapCommitment computes the SHA3-256 commitment of a trap plaintext.
// The nonce's entropy makes the hash a hiding commitment (§4.4: "since
// the nonces are high-entropy, we can use a cryptographic hash").
func TrapCommitment(trapPlaintext []byte) []byte {
	h := sha3.New256()
	h.Write([]byte("atom/trap-commitment/v1"))
	h.Write(trapPlaintext)
	return h.Sum(nil)
}

// makeTrap builds the trap plaintext "tag ‖ gid ‖ R" padded to the
// routed payload size.
func makeTrap(gid int, payloadLen int, rnd io.Reader) ([]byte, error) {
	trap := make([]byte, payloadLen)
	trap[0] = kindTrap
	binary.BigEndian.PutUint64(trap[1:9], uint64(gid))
	if _, err := io.ReadFull(rnd, trap[9:9+trapNonceLen]); err != nil {
		return nil, fmt.Errorf("protocol: trap nonce: %w", err)
	}
	// Remaining bytes stay zero: traps and inner ciphertexts are the same
	// length, so their onion encryptions are indistinguishable.
	return trap, nil
}

// trapGID extracts the entry-group id from a trap plaintext.
func trapGID(trap []byte) (int, error) {
	if len(trap) < 9+trapNonceLen || trap[0] != kindTrap {
		return 0, fmt.Errorf("protocol: not a trap message")
	}
	return int(binary.BigEndian.Uint64(trap[1:9])), nil
}

// SubmitTrap prepares a trap-variant submission of msg: the inner
// ciphertext under the trustees' round key and a trap naming the entry
// group, in random order (§4.4 steps 1–5).
func (c *Client) SubmitTrap(msg []byte, entryPK, trusteePK *ecc.Point, gid int, rnd io.Reader) (*TrapSubmission, error) {
	if c.cfg.Variant != VariantTrap {
		return nil, fmt.Errorf("%w: SubmitTrap requires the trap variant (have %v)", taxonomy.ErrVariantMismatch, c.cfg.Variant)
	}
	padded, err := padMessage(msg, c.cfg.MessageSize)
	if err != nil {
		return nil, err
	}
	inner, err := cca2.Encrypt(trusteePK, padded, rnd)
	if err != nil {
		return nil, err
	}
	realPayload := append([]byte{kindMessage}, inner...)
	if len(realPayload) != c.cfg.PayloadBytes() {
		return nil, fmt.Errorf("protocol: inner ciphertext is %d bytes, want %d", len(realPayload), c.cfg.PayloadBytes())
	}
	trapPayload, err := makeTrap(gid, c.cfg.PayloadBytes(), rnd)
	if err != nil {
		return nil, err
	}

	realVec, realProof, err := c.encryptPayload(realPayload, entryPK, gid, rnd)
	if err != nil {
		return nil, err
	}
	trapVec, trapProof, err := c.encryptPayload(trapPayload, entryPK, gid, rnd)
	if err != nil {
		return nil, err
	}

	sub := &TrapSubmission{GID: gid, Commitment: TrapCommitment(trapPayload)}
	// Random order so a tamperer cannot tell trap from message (§4.4:
	// "sends (c0,π0) and (c1,π1) in a random order").
	var coin [1]byte
	if _, err := io.ReadFull(rnd, coin[:]); err != nil {
		return nil, fmt.Errorf("protocol: ordering coin: %w", err)
	}
	if coin[0]&1 == 0 {
		sub.Ciphertexts = [2]elgamal.Vector{realVec, trapVec}
		sub.Proofs = [2]*nizk.EncProof{realProof, trapProof}
	} else {
		sub.Ciphertexts = [2]elgamal.Vector{trapVec, realVec}
		sub.Proofs = [2]*nizk.EncProof{trapProof, realProof}
	}
	return sub, nil
}

// DecodePlaintext classifies a routed plaintext that emerged from the
// exit layer: kindMessage payloads return (payload-after-tag, 'M'),
// traps return (trap-bytes, 'T').
func DecodePlaintext(p []byte) ([]byte, byte, error) {
	if len(p) == 0 {
		return nil, 0, fmt.Errorf("protocol: empty plaintext")
	}
	switch p[0] {
	case kindMessage:
		return p[1:], kindMessage, nil
	case kindTrap:
		return p, kindTrap, nil
	default:
		return nil, 0, fmt.Errorf("protocol: unknown plaintext kind %q", p[0])
	}
}

// equalBytes is constant-time-ish comparison for commitments; trap
// checks are not secret-dependent, so bytes.Equal would also do, but the
// explicit helper documents intent.
func equalBytes(a, b []byte) bool { return bytes.Equal(a, b) }
