package protocol

import (
	"fmt"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/taxonomy"
)

// Blame identifies disruptive users after a trap-variant round aborts
// (§4.6): every entry group reveals its (round-specific) private key,
// decrypts the submissions it accepted, and checks each user's pair —
// exactly one well-formed trap matching the user's commitment and naming
// this group, plus one inner ciphertext — and reports users submitting
// duplicate inner ciphertexts. Because group keys are per-round,
// revealing them sacrifices only the already-aborted round.
type BlameReport struct {
	// BadUsers lists users whose submissions were malformed (wrong trap,
	// wrong commitment, missing trap, or duplicate inner ciphertext).
	BadUsers []int
	// Reasons maps user id to a human-readable explanation.
	Reasons map[int]string
}

// IdentifyMaliciousUsers runs the blame procedure over this round's
// entry records.
func (rs *RoundState) IdentifyMaliciousUsers() (*BlameReport, error) {
	if rs.variant != VariantTrap {
		return nil, fmt.Errorf("%w: blame procedure applies to the trap variant", taxonomy.ErrVariantMismatch)
	}
	d := rs.d

	report := &BlameReport{Reasons: make(map[int]string)}
	blame := func(user int, reason string) {
		if _, dup := report.Reasons[user]; !dup {
			report.BadUsers = append(report.BadUsers, user)
			report.Reasons[user] = reason
		}
	}

	// Duplicate inner ciphertexts are detected across all groups: map
	// payload -> first submitting user.
	innerSeen := make(map[string]int)

	for gid := range rs.groups {
		rs.groups[gid].mu.Lock()
		records := rs.groups[gid].entries
		rs.groups[gid].mu.Unlock()
		if len(records) == 0 {
			continue
		}
		secret, err := d.revealGroupSecret(d.groups[gid])
		if err != nil {
			return nil, fmt.Errorf("protocol: revealing group %d key: %w", gid, err)
		}
		for _, rec := range records {
			if rec.Trap == nil {
				continue
			}
			payloads := make([][]byte, 0, 2)
			decryptOK := true
			for i := 0; i < 2; i++ {
				pts, err := elgamal.DecryptVector(secret, rec.Trap.Ciphertexts[i])
				if err != nil {
					decryptOK = false
					break
				}
				payload, err := ecc.ExtractMessage(pts)
				if err != nil {
					decryptOK = false
					break
				}
				payloads = append(payloads, payload)
			}
			if !decryptOK {
				blame(rec.User, "submission does not decrypt to an embedded payload")
				continue
			}
			var trapPayload, innerPayload []byte
			for _, p := range payloads {
				if len(p) > 0 && p[0] == kindTrap {
					trapPayload = p
				} else if len(p) > 0 && p[0] == kindMessage {
					innerPayload = p
				}
			}
			switch {
			case trapPayload == nil:
				blame(rec.User, "no trap message in submission")
				continue
			case innerPayload == nil:
				blame(rec.User, "no inner ciphertext in submission")
				continue
			}
			if tg, err := trapGID(trapPayload); err != nil || tg != gid {
				blame(rec.User, "trap names the wrong entry group")
				continue
			}
			if !equalBytes(TrapCommitment(trapPayload), rec.Trap.Commitment) {
				blame(rec.User, "trap does not match its commitment")
				continue
			}
			if first, dup := innerSeen[string(innerPayload)]; dup {
				blame(first, "duplicate inner ciphertext")
				blame(rec.User, "duplicate inner ciphertext")
				continue
			}
			innerSeen[string(innerPayload)] = rec.User
		}
	}
	return report, nil
}

// revealGroupSecret reconstructs a group's round secret from a threshold
// of member shares — the §4.6 "all entry groups first reveal their
// private keys" step. It is destructive for the round's anonymity at
// that group, which is why it only runs after an abort.
func (d *Deployment) revealGroupSecret(g *GroupState) (*ecc.Scalar, error) {
	active, err := g.Active()
	if err != nil {
		return nil, err
	}
	shares := make([]*ecc.Scalar, len(active))
	for i, idx := range active {
		shares[i] = g.Keys[idx-1].Share
	}
	secret, err := dvss.Reconstruct(active, shares)
	if err != nil {
		return nil, err
	}
	if !ecc.BaseMul(secret).Equal(g.PK) {
		return nil, fmt.Errorf("protocol: reconstructed key does not match group key")
	}
	return secret, nil
}
