package atom

import (
	"errors"

	"atom/internal/taxonomy"
)

// The public error taxonomy. Every error the package returns can be
// classified with errors.Is against these sentinels — no string
// matching required. Each is declared once, in internal/taxonomy, and
// every layer (protocol, dkg, store, the distributed engine, the
// daemon) returns or wraps that same value; the daemon's client protocol,
// the connection hello and the distributed engine's abort report carry an error as the set
// of sentinels it matches plus its Blame/Loss attribution, so the
// answer to errors.Is and errors.As is the same in process and after
// any hop. The sentinels form a small hierarchy:
//
//	ErrRoundAborted            the round cannot complete
//	├── ErrTrapTripped         trap variant: trustees destroyed the key
//	├── ErrProofRejected       NIZK variant: a shuffle/re-enc proof failed
//	├── ErrMemberLost          a member crashed or went unreachable
//	└── (context errors)       Mix canceled or past its deadline
//	ErrBadSubmission           a submission failed validation
//	└── ErrDuplicateSubmission replayed ciphertext or reused commitment
//	ErrSetupFailed             trust establishment failed
//	└── ErrDKGInsufficient     too few qualified DKG participants
//
// so errors.Is(err, ErrRoundAborted) is true for trap trips, proof
// rejections, member losses and cancellations alike, while the specific
// sentinels distinguish them. ErrMemberLost errors additionally match
// ErrRecoveryNeeded when the loss exhausted the group's h−1 budget, and
// LostMember extracts the crashed member's identity.
var (
	// ErrRoundAborted is returned when a round cannot complete: a
	// defense tripped, a group lost too many members mid-round, or the
	// mix was canceled. The anonymity guarantee holds: no tampered
	// message is ever revealed.
	ErrRoundAborted = taxonomy.ErrRoundAborted

	// ErrTrapTripped is the trap variant's abort (§4.4): trap
	// accounting failed and the trustees deleted the round's decryption
	// key. It matches ErrRoundAborted under errors.Is.
	ErrTrapTripped = taxonomy.ErrTrapTripped

	// ErrProofRejected is the NIZK variant's abort (§4.3): a member's
	// shuffle or re-encryption proof failed verification. It matches
	// ErrRoundAborted under errors.Is.
	ErrProofRejected = taxonomy.ErrProofRejected

	// ErrBadSubmission is returned for submissions that fail
	// validation: malformed wire bytes, wrong vector shape, a bad trap
	// commitment, or a rejected proof of plaintext knowledge.
	ErrBadSubmission = taxonomy.ErrBadSubmission

	// ErrDuplicateSubmission is returned for byte-identical replays and
	// reused trap commitments. It matches ErrBadSubmission under
	// errors.Is.
	ErrDuplicateSubmission = taxonomy.ErrDuplicateSubmission

	// ErrRoundClosed is returned by Submit once the round's Mix has
	// started; open the next round and submit there.
	ErrRoundClosed = taxonomy.ErrRoundClosed

	// ErrMemberLost is a distributed round's benign availability abort
	// (§4.5): a group member crashed or became unreachable — detected by
	// missed heartbeats or a failed chain delivery — as opposed to a
	// byzantine fault (ErrProofRejected) or a caller cancellation. It
	// matches ErrRoundAborted under errors.Is; when the loss pushed the
	// group past its h−1 budget the error also matches
	// ErrRecoveryNeeded. LostMember extracts the crashed member.
	ErrMemberLost = taxonomy.ErrMemberLost

	// ErrRecoveryNeeded is returned when a group has lost more members
	// than its h−1 budget; call Network.Recover before the next round.
	ErrRecoveryNeeded = taxonomy.ErrRecoveryNeeded

	// ErrVariantMismatch is returned for operations that require the
	// other active-attack defense (e.g. TrusteeKey on a NIZK network).
	ErrVariantMismatch = taxonomy.ErrVariantMismatch

	// ErrNoSuchGroup is returned for out-of-range group ids.
	ErrNoSuchGroup = taxonomy.ErrNoSuchGroup

	// ErrStateCorrupt is returned when persisted state — a store journal
	// record, a snapshot, or a serialized deployment — fails decoding or
	// cryptographic validation (e.g. a restored DVSS share that does not
	// open its Feldman commitments). The state directory needs operator
	// attention; the server must not rejoin from it.
	ErrStateCorrupt = taxonomy.ErrStateCorrupt

	// ErrConfigMismatch is returned when two parties disagree on the
	// canonical group-configuration hash: a member provisioned against a
	// different config file refuses to join rather than mix under the
	// wrong parameters.
	ErrConfigMismatch = taxonomy.ErrConfigMismatch

	// ErrSetupFailed is returned when trust establishment fails: a
	// group's joint-Feldman DKG ceremony or a resharing epoch could not
	// produce a usable threshold key. The underlying chain carries the
	// per-member fault attribution (see the dkg package's blame
	// taxonomy).
	ErrSetupFailed = taxonomy.ErrSetupFailed

	// ErrDKGInsufficient is the specific setup failure where, after
	// disqualifying misbehaving dealers, fewer qualified participants
	// remain than the ceremony requires. It matches ErrSetupFailed under
	// errors.Is.
	ErrDKGInsufficient = taxonomy.ErrDKGInsufficient

	// ErrServiceClosed is returned by Service methods after Close (or
	// after the serve context ended).
	ErrServiceClosed = taxonomy.ErrServiceClosed

	// ErrResultExpired is returned by WaitRound for a round whose
	// outcome has already been evicted from the service's bounded result
	// history.
	ErrResultExpired = taxonomy.ErrResultExpired

	// ErrProtocolVersion is returned when a peer's connection hello names
	// another wire protocol version (or no Atom hello at all): a client
	// and daemon, or two fleet members, built from releases that cannot
	// talk to each other. It carries no Blame or Loss — the peer is
	// neither misbehaving nor gone — so a skewed member fails its join
	// instead of being re-planned around. Upgrade both sides together.
	ErrProtocolVersion = taxonomy.ErrProtocolVersion
)

// BlamedMember extracts the offending group and member (DVSS index)
// from a round-abort error, when the abort carries an attribution —
// a rejected shuffle or re-encryption proof does, whether the round ran
// in-process, over the in-memory network, or over TCP. It reports
// ok=false for errors without one (trap trips, cancellations, …).
func BlamedMember(err error) (gid, member int, ok bool) {
	var b *taxonomy.Blame
	if errors.As(err, &b) {
		return b.GID, b.Member, true
	}
	return 0, 0, false
}

// LostMember extracts the crashed group and member (DVSS index) from a
// member-lost error — the availability counterpart of BlamedMember. It
// reports ok=false for errors without a loss attribution.
func LostMember(err error) (gid, member int, ok bool) {
	var l *taxonomy.Loss
	if errors.As(err, &l) {
		return l.GID, l.Member, true
	}
	return 0, 0, false
}
