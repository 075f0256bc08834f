// Package taxonomy declares Atom's error taxonomy once: every public
// sentinel with its place in the hierarchy, the Blame and Loss
// attributions, and the one wire form a typed error crosses a process
// boundary in. The atom package re-exports the sentinels as its Err*
// values; protocol, dkg, store, distributed and daemon return or wrap
// them directly, so there is nothing to translate between layers.
//
// The wire form is
//
//	error := uvarint(len(body)) ‖ body        (len 0 = no error)
//	body  := uvarint(mask) ‖ flags ‖ [varint gid ‖ varint member]{blame} ‖ [varint gid ‖ varint member]{loss} ‖ text
//
// where bit i of mask is set when the error matches table[i] under
// errors.Is, and flags bit 0 (1) marks a Blame and bit 1 (2) a Loss
// attribution. Bit positions are append-only: a peer built against a
// longer table sends bits this one ignores, never reinterprets.
package taxonomy

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
)

// The sentinels. Their documentation is the atom package's.
var (
	ErrRoundAborted        = errors.New("atom: round aborted")
	ErrTrapTripped         = fmt.Errorf("%w: trap tripped — trustees destroyed the round key", ErrRoundAborted)
	ErrProofRejected       = fmt.Errorf("%w: NIZK proof rejected", ErrRoundAborted)
	ErrMemberLost          = fmt.Errorf("%w: group member lost", ErrRoundAborted)
	ErrRecoveryNeeded      = errors.New("atom: group needs buddy recovery")
	ErrBadSubmission       = errors.New("atom: bad submission")
	ErrDuplicateSubmission = fmt.Errorf("%w: duplicate", ErrBadSubmission)
	ErrRoundClosed         = errors.New("atom: round closed to submissions")
	ErrVariantMismatch     = errors.New("atom: wrong variant for operation")
	ErrNoSuchGroup         = errors.New("atom: no such group")
	ErrStateCorrupt        = errors.New("atom: persisted state corrupt")
	ErrConfigMismatch      = errors.New("atom: group-config hash mismatch")
	ErrSetupFailed         = errors.New("atom: trust setup failed")
	ErrDKGInsufficient     = fmt.Errorf("%w: too few qualified participants", ErrSetupFailed)
	ErrServiceClosed       = errors.New("atom: service closed")
	ErrResultExpired       = errors.New("atom: round result no longer retained")
	ErrProtocolVersion     = errors.New("atom: peer speaks another protocol version")
)

// table maps wire bit positions to sentinels. Append only: a position,
// once shipped, keeps its sentinel forever.
var table = [...]error{
	0:  ErrRoundAborted,
	1:  ErrTrapTripped,
	2:  ErrProofRejected,
	3:  ErrMemberLost,
	4:  ErrRecoveryNeeded,
	5:  ErrBadSubmission,
	6:  ErrDuplicateSubmission,
	7:  ErrRoundClosed,
	8:  ErrVariantMismatch,
	9:  ErrNoSuchGroup,
	10: ErrStateCorrupt,
	11: ErrConfigMismatch,
	12: ErrSetupFailed,
	13: ErrDKGInsufficient,
	14: ErrServiceClosed,
	15: ErrResultExpired,
	16: context.Canceled,
	17: context.DeadlineExceeded,
	18: ErrProtocolVersion,
}

// Blame attaches the offending group and member to a round-abort error
// so callers can act on the attribution (exclude the server, escalate
// the variant) without parsing message text. It wraps the underlying
// sentinel — errors.Is(err, ErrProofRejected) still holds.
type Blame struct {
	// GID is the group whose step was rejected.
	GID int
	// Member is the offending member's DVSS index within the group; −1
	// leaves it for the coordinator to resolve (a bad cross-group batch).
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
// loss could not be pinned on one member (or, reported by a member, the
// group's first member). It wraps ErrMemberLost, and ErrRecoveryNeeded
// too when the group dropped below threshold.
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

const (
	flagBlame = 1 << iota
	flagLoss
)

// AppendError appends err's wire form to b; a nil err is the single
// byte 0.
func AppendError(b []byte, err error) []byte {
	if err == nil {
		return append(b, 0)
	}
	var mask uint64
	for i, s := range table {
		if errors.Is(err, s) {
			mask |= 1 << i
		}
	}
	var blame *Blame
	var loss *Loss
	var flags byte
	var pairs []byte
	if errors.As(err, &blame) {
		flags |= flagBlame
		pairs = binary.AppendVarint(binary.AppendVarint(pairs, int64(blame.GID)), int64(blame.Member))
	}
	if errors.As(err, &loss) {
		flags |= flagLoss
		pairs = binary.AppendVarint(binary.AppendVarint(pairs, int64(loss.GID)), int64(loss.Member))
	}
	body := append(binary.AppendUvarint(nil, mask), flags)
	body = append(body, pairs...)
	body = append(body, err.Error()...)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

// ReadError decodes one wire error off the front of b: the rebuilt
// error (nil for the nil form) and the bytes after it. ok is false when
// b does not start with a well-formed wire error. The rebuilt error
// matches under errors.Is exactly the table sentinels the original
// matched and carries its Blame/Loss attribution for errors.As; its
// text is the original's.
func ReadError(b []byte) (decoded error, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, false
	}
	body, rest := b[k:k+int(n)], b[k+int(n):]
	if len(body) == 0 {
		return nil, rest, true
	}
	mask, k := binary.Uvarint(body)
	if k <= 0 || k >= len(body) || body[k]&^(flagBlame|flagLoss) != 0 {
		return nil, nil, false
	}
	flags, body := body[k], body[k+1:]
	var blame, loss [2]int
	if flags&flagBlame != 0 {
		if body, ok = readPair(body, &blame); !ok {
			return nil, nil, false
		}
	}
	if flags&flagLoss != 0 {
		if body, ok = readPair(body, &loss); !ok {
			return nil, nil, false
		}
	}
	decoded = &remote{mask: mask, text: string(body)}
	if flags&flagLoss != 0 {
		decoded = &Loss{GID: loss[0], Member: loss[1], Err: decoded}
	}
	if flags&flagBlame != 0 {
		decoded = &Blame{GID: blame[0], Member: blame[1], Err: decoded}
	}
	return decoded, rest, true
}

// readPair decodes an attribution's (gid, member) varints.
func readPair(b []byte, pair *[2]int) ([]byte, bool) {
	for i := range pair {
		v, k := binary.Varint(b)
		if k <= 0 || v != int64(int(v)) {
			return nil, false
		}
		pair[i], b = int(v), b[k:]
	}
	return b, true
}

// remote is a decoded wire error: the original text, matching the
// sentinels its mask names.
type remote struct {
	mask uint64
	text string
}

func (e *remote) Error() string { return e.text }

// Is matches the sentinels whose bits the sender set, and their
// parents: the hierarchy holds even for a mask a peer got wrong.
func (e *remote) Is(target error) bool {
	for i, s := range table {
		if e.mask&(1<<i) != 0 && errors.Is(s, target) {
			return true
		}
	}
	return false
}
