package protocol

import (
	"fmt"
	"io"

	"atom/internal/cca2"
	"atom/internal/ecc"
	"atom/internal/taxonomy"
)

// Trustees is the extra anytrust group of the trap variant (§4.4). The
// trustees collectively generate a per-round keypair — each holding an
// additive share of the secret — under which users CCA2-encrypt their
// inner ciphertexts. Each trustee releases its share only if every exit
// report is clean and the global trap/message counts match; otherwise it
// deletes the share, rendering the round's inner ciphertexts permanently
// undecryptable (so tampered messages are never revealed).
type Trustees struct {
	n      int
	pk     *ecc.Point
	shares []*ecc.Scalar // share i held by trustee i; nil once deleted
}

// NewTrustees generates the per-round trustee key among n trustees.
func NewTrustees(n int, rnd io.Reader) (*Trustees, error) {
	if n < 1 {
		return nil, fmt.Errorf("protocol: need at least one trustee")
	}
	t := &Trustees{n: n, shares: make([]*ecc.Scalar, n)}
	pk := ecc.Identity()
	for i := 0; i < n; i++ {
		s, err := ecc.RandomScalar(rnd)
		if err != nil {
			return nil, fmt.Errorf("protocol: trustee keygen: %w", err)
		}
		t.shares[i] = s
		pk = pk.Add(ecc.BaseMul(s))
	}
	t.pk = pk
	// Every submission of the round CCA2-encrypts to this key; warm its
	// fixed-base table once here instead of paying a generic
	// multiplication per submission.
	cca2.WarmEncryptionKey(pk)
	return t, nil
}

// PK returns the round public key users encrypt inner ciphertexts to.
func (t *Trustees) PK() *ecc.Point { return t.pk }

// ExitReport is what each group reports to the trustees after the
// mixing and sorting phases (§4.4): whether every trap commitment had a
// matching trap and vice versa, whether the inner ciphertexts it
// received were well-formed and duplicate-free, and the counts.
type ExitReport struct {
	GID      int
	TrapsOK  bool
	InnerOK  bool
	NumTraps int
	NumInner int
}

// Release hands out the trustees' key shares if and only if every report
// is clean and the total number of traps equals the total number of
// inner ciphertexts. On any violation the shares are deleted first, so a
// second call cannot recover them.
func (t *Trustees) Release(reports []ExitReport) ([]*ecc.Scalar, error) {
	traps, inner := 0, 0
	ok := true
	var reason string
	for _, r := range reports {
		if !r.TrapsOK {
			ok = false
			reason = fmt.Sprintf("group %d reported trap violation", r.GID)
		}
		if !r.InnerOK {
			ok = false
			reason = fmt.Sprintf("group %d reported inner-ciphertext violation", r.GID)
		}
		traps += r.NumTraps
		inner += r.NumInner
	}
	if traps != inner {
		ok = false
		reason = fmt.Sprintf("count mismatch: %d traps vs %d inner ciphertexts", traps, inner)
	}
	if !ok {
		// Delete the shares before reporting failure: the key must not
		// survive a violation.
		for i := range t.shares {
			t.shares[i] = nil
		}
		return nil, fmt.Errorf("%w: %s", taxonomy.ErrTrapTripped, reason)
	}
	for _, s := range t.shares {
		if s == nil {
			return nil, fmt.Errorf("%w: shares already deleted", taxonomy.ErrTrapTripped)
		}
	}
	return t.shares, nil
}

// Deleted reports whether the trustees have destroyed their shares.
func (t *Trustees) Deleted() bool {
	for _, s := range t.shares {
		if s == nil {
			return true
		}
	}
	return false
}
