package protocol

import (
	"fmt"
	"io"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/parallel"
	"atom/internal/topology"
)

// MemberEngine executes one group member's share of a mixing iteration:
// the verifiable shuffle, the verifiable decrypt-and-reencrypt, and the
// verification of another member's steps. It is the single
// implementation shared by the in-process deployment
// (GroupState.runIteration, which plays every member of a group in one
// process) and the distributed actor loop (internal/distributed, where
// each member owns only its own key share and receives the other
// members' steps over a transport) — so the two paths cannot drift.
//
// All per-message cryptography fans over the engine's parallel.Pool
// (nil = serial); error classification is uniform: a failed proof
// becomes a *Blame wrapping ErrProofRejected with the offending group
// and member attached, and a context expiry observed inside pooled
// verification is reported as a cancellation, never as a byzantine
// fault pinned on an innocent member.
type MemberEngine struct {
	// GID is the group the engine mixes for (blame attribution).
	GID int
	// Variant selects whether steps carry NIZK proofs.
	Variant Variant
	// GroupPK is the group key ciphertexts are currently encrypted to.
	GroupPK *ecc.Point
	// Pool bounds the engine's crypto parallelism; nil runs serially.
	Pool *parallel.Pool
}

// ShuffleStep is one member's verifiable shuffle: the input batch, the
// permuted+rerandomized output, and (NIZK variant) the proof tying them
// together. It is exactly what travels to the next member in the
// distributed chain.
type ShuffleStep struct {
	// Member is the shuffler's DVSS index, for blame attribution.
	Member  int
	In, Out []elgamal.Vector
	Proof   *nizk.ShufProof // nil outside the NIZK variant
}

// ReEncStep is one member's verifiable decrypt-and-reencrypt of one
// batch toward one destination key (nil = ⊥, the exit layer).
type ReEncStep struct {
	// Member is the re-encryptor's DVSS index.
	Member int
	// EffPub is the member's effective public key (λ·share image), the
	// statement key the proofs verify against. Verifiers must fill this
	// from the public DKG transcript, never from the prover's claim.
	EffPub  *ecc.Point
	DestPK  *ecc.Point
	In, Out []elgamal.Vector
	Proofs  []*nizk.ReEncProof // nil outside the NIZK variant
}

// Shuffle permutes and rerandomizes the batch under the group key,
// returning the raw material (output, permutation, randomness) so the
// caller can interpose — the deployment's adversary hook tampers with
// the output here — before ProveStep seals the step.
func (e *MemberEngine) Shuffle(member int, batch []elgamal.Vector, rnd io.Reader) (out []elgamal.Vector, perm []int, rands [][]*ecc.Scalar, err error) {
	out, perm, rands, err = elgamal.ShuffleBatchPar(e.GroupPK, batch, rnd, e.Pool)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("protocol: group %d member %d shuffle: %w", e.GID, member, err)
	}
	return out, perm, rands, nil
}

// ProveStep closes a shuffle into a ShuffleStep, generating the NIZK in
// the proving variant. perm and rands must be the values Shuffle
// returned for (in, out); a tampered out yields a proof that fails
// verification, exactly as a malicious prover's would.
func (e *MemberEngine) ProveStep(member int, in, out []elgamal.Vector, perm []int, rands [][]*ecc.Scalar, rnd io.Reader) (*ShuffleStep, error) {
	step := &ShuffleStep{Member: member, In: in, Out: out}
	if e.Variant == VariantNIZK {
		proof, err := nizk.ProveShufflePar(e.GroupPK, in, out, perm, rands, rnd, e.Pool)
		if err != nil {
			return nil, fmt.Errorf("protocol: group %d member %d shuffle proof: %w", e.GID, member, err)
		}
		step.Proof = proof
	}
	return step, nil
}

// VerifyShuffle checks a member's shuffle step (NIZK variant; a no-op
// for proof-less trap steps). pool overrides the engine's pool for the
// inner multiexp fan-out — callers verifying many steps concurrently
// pass nil and fan the steps themselves. A rejection is a *Blame
// wrapping ErrProofRejected.
func (e *MemberEngine) VerifyShuffle(s *ShuffleStep, pool *parallel.Pool) error {
	if e.Variant != VariantNIZK {
		return nil
	}
	if err := nizk.VerifyShufflePar(e.GroupPK, s.In, s.Out, s.Proof, pool); err != nil {
		if parallel.Canceled(err) {
			// The round was canceled mid-verification — not a byzantine
			// fault; never blame the member for it.
			return fmt.Errorf("protocol: mixing canceled: %w", err)
		}
		return &Blame{GID: e.GID, Member: s.Member, Err: fmt.Errorf(
			"%w: group %d aborts — member %d shuffle rejected: %v", ErrProofRejected, e.GID, s.Member, err)}
	}
	return nil
}

// ReEnc peels the member's layer off every ciphertext of the batch and
// re-encrypts toward destPK (nil = decrypt to plaintext, the exit
// layer), generating per-vector proofs in the NIZK variant. eff/effPub
// are the member's effective key pair for the active subset.
func (e *MemberEngine) ReEnc(member int, eff *ecc.Scalar, effPub, destPK *ecc.Point, batch []elgamal.Vector, rnd io.Reader) (*ReEncStep, error) {
	next, rss, err := elgamal.ReEncBatchPar(eff, destPK, batch, rnd, e.Pool)
	if err != nil {
		return nil, fmt.Errorf("protocol: group %d member %d reenc: %w", e.GID, member, err)
	}
	step := &ReEncStep{Member: member, EffPub: effPub, DestPK: destPK, In: batch, Out: next}
	if e.Variant == VariantNIZK {
		// Per-vector proofs are independent: generate them across the
		// pool (randomness drawn through a locked reader).
		prnd := parallel.LockedReader(rnd)
		proofs, err := parallel.Map(e.Pool, len(batch), func(vi int) (*nizk.ReEncProof, error) {
			return nizk.ProveReEnc(eff, effPub, destPK, batch[vi], next[vi], rss[vi], prnd)
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: group %d member %d reenc proof: %w", e.GID, member, err)
		}
		step.Proofs = proofs
	}
	return step, nil
}

// VerifyReEnc checks a member's re-encryption step with one batched
// random-linear-combination verification (NIZK variant; a no-op for
// trap steps). The step's EffPub must come from the verifier's own
// roster. A rejection is a *Blame wrapping ErrProofRejected.
func (e *MemberEngine) VerifyReEnc(s *ReEncStep) error {
	if e.Variant != VariantNIZK {
		return nil
	}
	if err := nizk.VerifyReEncBatch(s.EffPub, s.DestPK, s.In, s.Out, s.Proofs, e.Pool); err != nil {
		if parallel.Canceled(err) {
			return fmt.Errorf("protocol: mixing canceled: %w", err)
		}
		return &Blame{GID: e.GID, Member: s.Member, Err: fmt.Errorf(
			"%w: group %d aborts — member %d reencryption rejected: %v", ErrProofRejected, e.GID, s.Member, err)}
	}
	return nil
}

// Divide splits a shuffled batch into β contiguous sub-batches exactly
// as the topology declares the split (Algorithm 1 step 2).
func Divide(batch []elgamal.Vector, beta int) [][]elgamal.Vector {
	sizes := topology.BatchSizes(len(batch), beta)
	out := make([][]elgamal.Vector, beta)
	off := 0
	for i := 0; i < beta; i++ {
		out[i] = batch[off : off+sizes[i]]
		off += sizes[i]
	}
	return out
}

// ClearYBatch clears the Y slot of every vector — the last server's
// final touch before the batch leaves the group (Appendix A).
func ClearYBatch(batch []elgamal.Vector) []elgamal.Vector {
	for vi := range batch {
		batch[vi] = elgamal.ClearYVector(batch[vi])
	}
	return batch
}

// ExtractExitPayloads converts an exit group's fully-decrypted vectors
// into payload bytes — shared by the in-process mixer and the
// distributed coordinator.
func ExtractExitPayloads(batch []elgamal.Vector) ([][]byte, error) {
	out := make([][]byte, len(batch))
	for i, vec := range batch {
		pts := elgamal.PlaintextVector(vec)
		payload, err := ecc.ExtractMessage(pts)
		if err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
		out[i] = payload
	}
	return out, nil
}
