package protocol

import (
	"errors"
	"fmt"
)

// Sentinel errors of the protocol layer. Every error returned across
// the package boundary wraps one of these (or ErrRoundAborted in
// trustees.go), so callers can classify failures with errors.Is instead
// of string matching. The atom package re-exports a public taxonomy
// built on top of them.
var (
	// ErrBadSubmission marks a submission that failed validation:
	// malformed wire bytes, wrong vector shape, a mid-chain Y slot, a
	// bad commitment, or a rejected proof of plaintext knowledge.
	ErrBadSubmission = errors.New("protocol: bad submission")

	// ErrDuplicateSubmission marks a byte-identical replay of an already
	// accepted ciphertext or a reused trap commitment. It wraps
	// ErrBadSubmission: every duplicate is also a bad submission.
	ErrDuplicateSubmission = fmt.Errorf("%w: duplicate", ErrBadSubmission)

	// ErrNoSuchGroup marks an out-of-range group id.
	ErrNoSuchGroup = errors.New("protocol: no such group")

	// ErrWrongVariant marks an operation that requires the other
	// active-attack defense (e.g. a trap submission on a NIZK network).
	ErrWrongVariant = errors.New("protocol: wrong variant")

	// ErrProofRejected marks a NIZK-variant round abort: a member's
	// shuffle or re-encryption proof failed verification (Algorithm 2).
	ErrProofRejected = errors.New("protocol: proof rejected")

	// ErrRecoveryNeeded marks a group that has lost more than its h−1
	// failure budget and cannot mix until buddy-group recovery runs.
	ErrRecoveryNeeded = errors.New("protocol: group needs recovery")

	// ErrMemberLost marks a benign availability failure: a group member
	// crashed or became unreachable (detected by missing heartbeats or a
	// failed delivery), as opposed to a byzantine fault (ErrProofRejected
	// blames a member for a bad proof) or a caller cancellation. Errors
	// carrying it usually also carry a *Loss attribution, and — when the
	// loss pushed the group past its h−1 budget — additionally match
	// ErrRecoveryNeeded.
	ErrMemberLost = errors.New("protocol: group member lost")

	// ErrRoundClosed marks a submission into a round that has already
	// been sealed for mixing.
	ErrRoundClosed = errors.New("protocol: round closed to submissions")
)

// Blame attaches the offending group and member to a round-abort error
// so callers can act on the attribution (exclude the server, escalate
// the variant) without parsing message text. It wraps the underlying
// sentinel — errors.Is(err, ErrProofRejected) still holds — and is
// produced by the same Seat code on the in-process and the distributed
// link:
//
//	var blame *protocol.Blame
//	if errors.As(err, &blame) { exclude(blame.GID, blame.Member) }
type Blame struct {
	// GID is the group whose step was rejected.
	GID int
	// Member is the offending member's DVSS index within the group.
	Member int
	// Err carries the sentinel chain (ErrProofRejected, …).
	Err error
}

// Error implements error.
func (b *Blame) Error() string { return b.Err.Error() }

// Unwrap exposes the sentinel chain to errors.Is/errors.As.
func (b *Blame) Unwrap() error { return b.Err }

// Loss attaches the crashed group and member to a member-lost error —
// the availability counterpart of Blame. Member is the member's 1-based
// DVSS index within the group (its roster position + 1); −1 when the
// loss could not be pinned on one member. It wraps ErrMemberLost (and,
// when the group dropped below threshold, ErrRecoveryNeeded too):
//
//	var loss *protocol.Loss
//	if errors.As(err, &loss) { replace(loss.GID, loss.Member) }
type Loss struct {
	// GID is the group that lost the member.
	GID int
	// Member is the lost member's DVSS index (−1 if unattributed).
	Member int
	// Err carries the sentinel chain (ErrMemberLost, …).
	Err error
}

// Error implements error.
func (l *Loss) Error() string { return l.Err.Error() }

// Unwrap exposes the sentinel chain to errors.Is/errors.As.
func (l *Loss) Unwrap() error { return l.Err }
