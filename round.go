package atom

import (
	"context"
	"fmt"
	"sync/atomic"

	"atom/internal/protocol"
)

// Round is a handle on one anonymous-broadcast round. Rounds are the
// unit of pipelining: OpenRound returns immediately, Submit and
// SubmitEncoded are safe for concurrent use by any number of
// goroutines (ingestion is sharded; the expensive proof verification
// runs lock-free), and a new round can open and accept submissions
// while an earlier round is still mixing — the paper's §4.7
// throughput-optimized organization.
//
// The lifecycle is open → submit… → Mix → done. Mix seals the round:
// submissions racing with Mix either land in the mixed batch or fail
// with ErrRoundClosed, never silently dropped. A Round is not reusable;
// open a new one per batch.
type Round struct {
	n  *Network
	rs *protocol.RoundState

	mixed atomic.Bool
	stats atomic.Pointer[RoundStats]
}

// OpenRound opens a new round: it allocates fresh ingestion buffers
// and, in the trap variant, generates the round's trustee key. The
// returned Round accepts submissions immediately, independently of any
// other round's lifecycle.
func (n *Network) OpenRound(ctx context.Context) (*Round, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRoundAborted, err)
	}
	rs, err := n.d.OpenRound()
	if err != nil {
		return nil, err
	}
	r := &Round{n: n, rs: rs}
	if obs := n.observer(); obs != nil && obs.RoundOpened != nil {
		obs.RoundOpened(rs.ID())
	}
	return r, nil
}

// ID returns the round's network-unique sequence number.
func (r *Round) ID() uint64 { return r.rs.ID() }

// Pending returns the number of submissions the round has accepted.
func (r *Round) Pending() int { return r.rs.Pending() }

// Submit pads, encrypts and submits msg for the given user, choosing
// the entry group as user mod G (an untrusted load balancer's policy;
// the choice does not affect anonymity). Safe for concurrent use.
func (r *Round) Submit(user int, msg []byte) error {
	return r.SubmitTo(user, user%r.n.d.NumGroups(), msg)
}

// SubmitTo is Submit with an explicit entry group. Safe for concurrent
// use.
func (r *Round) SubmitTo(user, gid int, msg []byte) error {
	if err := r.encryptAndSubmit(user, gid, msg); err != nil {
		return err
	}
	if obs := r.n.observer(); obs != nil && obs.SubmissionAccepted != nil {
		obs.SubmissionAccepted(r.rs.ID(), user, gid)
	}
	return nil
}

// encryptAndSubmit plays the user's side of a submission in-process:
// encrypt msg for entry group gid (and, in the trap variant, this
// round's trustee key), then hand it to admission.
func (r *Round) encryptAndSubmit(user, gid int, msg []byte) error {
	pk, err := r.n.d.GroupPK(gid)
	if err != nil {
		return err
	}
	switch r.rs.Variant() {
	case protocol.VariantNIZK:
		sub, err := r.n.client.Submit(msg, pk, gid, entropy())
		if err != nil {
			return err
		}
		return r.rs.SubmitUser(user, sub)
	case protocol.VariantTrap:
		tpk, err := r.rs.TrusteePK()
		if err != nil {
			return err
		}
		sub, err := r.n.client.SubmitTrap(msg, pk, tpk, gid, entropy())
		if err != nil {
			return err
		}
		return r.rs.SubmitTrapUser(user, sub)
	default:
		return fmt.Errorf("atom: unknown variant")
	}
}

// SubmitEncoded accepts a wire-encoded submission produced by
// Client.EncryptSubmission — the path remote users take. The
// submission must have been encrypted to this round's keys (in the
// trap variant, to this round's TrusteeKey). Safe for concurrent use.
func (r *Round) SubmitEncoded(user int, wire []byte) error {
	if err := r.rs.SubmitEncoded(user, wire); err != nil {
		return err
	}
	if obs := r.n.observer(); obs != nil && obs.SubmissionAccepted != nil {
		obs.SubmissionAccepted(r.rs.ID(), user, -1)
	}
	return nil
}

// SubmitEncodedBatch admits many wire-encoded submissions at once,
// verifying their admission proofs as a single batch (users[i] submitted
// wires[i]). The returned slice has one entry per submission: nil if
// admitted, otherwise the same typed error SubmitEncoded would have
// produced. Safe for concurrent use.
func (r *Round) SubmitEncodedBatch(users []int, wires [][]byte) []error {
	errs, stats := r.rs.SubmitEncodedBatch(users, wires)
	obs := r.n.observer()
	if obs == nil {
		return errs
	}
	for i, err := range errs {
		if err == nil && obs.SubmissionAccepted != nil {
			obs.SubmissionAccepted(r.rs.ID(), users[i], -1)
		}
	}
	if obs.AdmissionBatch != nil {
		obs.AdmissionBatch(r.rs.ID(), stats)
	}
	return errs
}

// TrusteeKey returns the wire encoding of this round's trustee public
// key (trap variant only). Remote clients must encrypt against the key
// of the round they submit into — trustee keys rotate every round.
func (r *Round) TrusteeKey() ([]byte, error) {
	pk, err := r.rs.TrusteePK()
	if err != nil {
		return nil, err
	}
	return pk.Bytes(), nil
}

// Mix seals the round and executes its T mixing iterations plus the
// variant-specific finale, honoring ctx cancellation and deadlines
// throughout. Only one round mixes at a time (later Mix calls queue),
// but other rounds keep accepting submissions while this one runs.
//
// Errors are classified by the package taxonomy: ErrTrapTripped and
// ErrProofRejected (both matching ErrRoundAborted) for tripped
// defenses, ErrRecoveryNeeded when a group is under threshold, and an
// ErrRoundAborted wrapping ctx.Err() on cancellation. After an abort
// the round's records remain available to IdentifyMaliciousUsers.
func (r *Round) Mix(ctx context.Context) (*Result, error) {
	// A dead context must not consume the round — the batch survives
	// and Mix can be retried with a live context.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRoundAborted, err)
	}
	if !r.mixed.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: round %d already mixed", ErrRoundClosed, r.rs.ID())
	}
	submissions := r.rs.Pending()
	res, err := r.n.d.RunRoundCtx(ctx, r.rs, r.n.hooksFor())
	obs := r.n.observer()
	if err != nil {
		if obs != nil && obs.RoundFailed != nil {
			obs.RoundFailed(r.rs.ID(), err)
		}
		return nil, err
	}
	stats := statsFromResult(res, submissions)
	r.stats.Store(&stats)
	if obs != nil && obs.RoundMixed != nil {
		obs.RoundMixed(stats)
	}
	return &Result{Messages: res.Messages, Stats: stats}, nil
}

// Stats returns the round's statistics after a successful Mix; ok is
// false before then.
func (r *Round) Stats() (stats RoundStats, ok bool) {
	if p := r.stats.Load(); p != nil {
		return *p, true
	}
	return RoundStats{}, false
}

// IdentifyMaliciousUsers runs the trap variant's retroactive blame
// procedure after this round aborted, returning the offending user ids
// and per-user explanations.
func (r *Round) IdentifyMaliciousUsers() ([]int, map[int]string, error) {
	report, err := r.rs.IdentifyMaliciousUsers()
	if err != nil {
		return nil, nil, err
	}
	return report.BadUsers, report.Reasons, nil
}
