package protocol

import (
	"fmt"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/taxonomy"
)

// Batched admission: the ingestion frontend collects wire-encoded
// submissions and admits them together, so the per-submission EncProof
// checks collapse into one random-linear-combination verification
// (nizk.VerifyEncBatch) instead of k independent ones. The admission
// *decisions* are unchanged — a batch admits exactly the submissions the
// serial path would admit, and rejects each offender with byte-for-byte
// the error SubmitEncoded would have returned — only the verification
// cost is amortized. On a combined-check failure every batched proof is
// re-verified serially to attribute rejections, so a single malicious
// submission cannot poison its batch-mates.

// BatchAdmitStats is the observability record of one admission batch,
// surfaced through the service Observer into /metrics.
type BatchAdmitStats struct {
	// Size is the number of submissions in the batch.
	Size int
	// Verified is the number of submissions whose proofs entered the
	// combined verification (structurally broken ones never do).
	Verified int
	// VerifyTime is the wall time of the combined proof verification,
	// including the serial attribution re-scan when the batch fails.
	VerifyTime time.Duration
	// Admitted and Rejected partition the batch.
	Admitted int
	Rejected int
}

// admitItem is the per-submission scratch state of one admission batch.
type admitItem struct {
	err  error
	sub  *Submission
	trap *TrapSubmission
	pk   *ecc.Point
}

// SubmitEncodedBatch admits many wire-encoded submissions at once,
// verifying their encryption proofs as a single batch. users[i] is the
// submitting user of wires[i]. The returned slice has one entry per
// submission: nil if admitted, otherwise the same typed error the serial
// SubmitEncoded path would have produced (ErrBadSubmission,
// ErrDuplicateSubmission, ErrRoundClosed, ErrNoSuchGroup). Safe for
// concurrent use with every other Submit method and with sealing.
func (rs *RoundState) SubmitEncodedBatch(users []int, wires [][]byte) ([]error, BatchAdmitStats) {
	items := make([]admitItem, len(wires))
	stats := BatchAdmitStats{Size: len(wires)}

	if rs.sealed.Load() {
		for i := range items {
			items[i].err = fmt.Errorf("%w: round %d is mixing", taxonomy.ErrRoundClosed, rs.id)
		}
		return rs.finishBatch(items, &stats)
	}

	// Decode and structural checks, collecting the proofs of well-formed
	// submissions for the combined check. The serial path interleaves
	// structural checks with proof verification (trap ciphertext 0 is
	// fully verified before ciphertext 1 is even looked at), so when a
	// trap submission mixes a good ciphertext 0 with a structurally broken
	// ciphertext 1 we fall back to serial verification of ciphertext 0 to
	// report whichever failure the serial path hits first.
	np := rs.d.cfg.NumPoints()
	var pks []*ecc.Point
	var vecs []elgamal.Vector
	var gids []uint64
	var owners []int // unit index → item index, for the attribution re-scan
	for i, wire := range wires {
		it := &items[i]
		switch rs.variant {
		case VariantNIZK:
			sub, err := DecodeSubmission(wire)
			if err != nil {
				it.err = fmt.Errorf("%w: %v", taxonomy.ErrBadSubmission, err)
				continue
			}
			g, err := rs.d.groupFor(sub.GID)
			if err != nil {
				it.err = err
				continue
			}
			if err := checkSubmissionShape(sub.Ciphertext, np); err != nil {
				it.err = err
				continue
			}
			it.sub, it.pk = sub, g.PK
			pks = append(pks, g.PK)
			vecs = append(vecs, sub.Ciphertext)
			gids = append(gids, uint64(sub.GID))
			owners = append(owners, i)
		default:
			sub, err := DecodeTrapSubmission(wire)
			if err != nil {
				it.err = fmt.Errorf("%w: %v", taxonomy.ErrBadSubmission, err)
				continue
			}
			g, err := rs.d.groupFor(sub.GID)
			if err != nil {
				it.err = err
				continue
			}
			if err := checkSubmissionShape(sub.Ciphertexts[0], np); err != nil {
				it.err = fmt.Errorf("ciphertext 0: %w", err)
				continue
			}
			if err := checkSubmissionShape(sub.Ciphertexts[1], np); err != nil {
				if err0 := verifySubmissionVector(g.PK, sub.Ciphertexts[0], sub.GID, sub.Proofs[0], np); err0 != nil {
					it.err = fmt.Errorf("ciphertext 0: %w", err0)
				} else {
					it.err = fmt.Errorf("ciphertext 1: %w", err)
				}
				continue
			}
			it.trap, it.pk = sub, g.PK
			for ci := 0; ci < 2; ci++ {
				pks = append(pks, g.PK)
				vecs = append(vecs, sub.Ciphertexts[ci])
				gids = append(gids, uint64(sub.GID))
				owners = append(owners, i)
			}
		}
		stats.Verified++
	}

	// One combined check vouches for every well-formed proof; on failure,
	// re-verify serially so each offender gets the serial path's exact
	// error and its batch-mates still land.
	start := time.Now()
	if len(vecs) > 0 {
		if nizk.VerifyEncBatch(pks, vecs, gids, proofUnits(items, owners)) != nil {
			rescanned := make(map[int]bool, len(owners))
			for _, i := range owners {
				if rescanned[i] {
					continue
				}
				rescanned[i] = true
				it := &items[i]
				if it.sub != nil {
					it.err = verifySubmissionVector(it.pk, it.sub.Ciphertext, it.sub.GID, it.sub.Proof, np)
				} else {
					for ci := 0; ci < 2; ci++ {
						if err := verifySubmissionVector(it.pk, it.trap.Ciphertexts[ci], it.trap.GID, it.trap.Proofs[ci], np); err != nil {
							it.err = fmt.Errorf("ciphertext %d: %w", ci, err)
							break
						}
					}
				}
			}
		}
	}
	stats.VerifyTime = time.Since(start)

	// Proofs are settled; run the serial tail — duplicate filter and
	// group append — in submission order, so duplicates within the batch
	// resolve exactly as back-to-back serial submissions would.
	for i := range items {
		it := &items[i]
		if it.err != nil {
			continue
		}
		switch {
		case it.sub != nil:
			it.err = rs.admitVerified(users[i], it.sub)
		case it.trap != nil:
			it.err = rs.admitVerifiedTrap(users[i], it.trap)
		}
	}
	return rs.finishBatch(items, &stats)
}

// proofUnits gathers the EncProofs matching the (pks, vecs, gids) unit
// slices built during the structural pass.
func proofUnits(items []admitItem, owners []int) []*nizk.EncProof {
	proofs := make([]*nizk.EncProof, len(owners))
	trapSeen := make(map[int]int, len(owners))
	for u, i := range owners {
		if items[i].sub != nil {
			proofs[u] = items[i].sub.Proof
		} else {
			proofs[u] = items[i].trap.Proofs[trapSeen[i]]
			trapSeen[i]++
		}
	}
	return proofs
}

// admitVerified runs the post-verification tail of the serial NIZK path:
// duplicate-filter reservation and the sealed-re-check append.
func (rs *RoundState) admitVerified(user int, sub *Submission) error {
	fp := string(sub.Ciphertext.Fingerprint())
	if err := rs.reserve(fp); err != nil {
		return err
	}
	rg := &rs.groups[sub.GID]
	rg.mu.Lock()
	if rs.sealed.Load() {
		rg.mu.Unlock()
		rs.release(fp)
		return fmt.Errorf("%w: round %d is mixing", taxonomy.ErrRoundClosed, rs.id)
	}
	rg.batch = append(rg.batch, sub.Ciphertext.Clone())
	rg.entries = append(rg.entries, entryRecord{User: user, Sub: sub})
	rg.mu.Unlock()
	rs.pending.Add(1)
	return nil
}

// admitVerifiedTrap runs the post-verification tail of the serial trap
// path: commitment shape, duplicate filters, commitment-reuse check, and
// the sealed-re-check append.
func (rs *RoundState) admitVerifiedTrap(user int, sub *TrapSubmission) error {
	if len(sub.Commitment) != 32 {
		return fmt.Errorf("%w: trap commitment must be 32 bytes, got %d", taxonomy.ErrBadSubmission, len(sub.Commitment))
	}
	fp0 := string(sub.Ciphertexts[0].Fingerprint())
	fp1 := string(sub.Ciphertexts[1].Fingerprint())
	if err := rs.reserve(fp0); err != nil {
		return err
	}
	if err := rs.reserve(fp1); err != nil {
		rs.release(fp0)
		return err
	}
	rg := &rs.groups[sub.GID]
	rg.mu.Lock()
	if rs.sealed.Load() {
		rg.mu.Unlock()
		rs.release(fp0)
		rs.release(fp1)
		return fmt.Errorf("%w: round %d is mixing", taxonomy.ErrRoundClosed, rs.id)
	}
	if _, dup := rg.commitments[string(sub.Commitment)]; dup {
		rg.mu.Unlock()
		rs.release(fp0)
		rs.release(fp1)
		return fmt.Errorf("%w: trap commitment reused", taxonomy.ErrDuplicateSubmission)
	}
	rg.batch = append(rg.batch, sub.Ciphertexts[0].Clone(), sub.Ciphertexts[1].Clone())
	rg.commitments[string(sub.Commitment)] = user
	rg.entries = append(rg.entries, entryRecord{User: user, Trap: sub})
	rg.mu.Unlock()
	rs.pending.Add(1)
	return nil
}

// finishBatch folds the batch outcome into the round's admission
// accounting and totals the stats.
func (rs *RoundState) finishBatch(items []admitItem, stats *BatchAdmitStats) ([]error, BatchAdmitStats) {
	errs := make([]error, len(items))
	for i := range items {
		errs[i] = items[i].err
		if items[i].err != nil {
			rs.rejected.Add(1)
			stats.Rejected++
		} else {
			stats.Admitted++
		}
	}
	return errs, *stats
}
