package taxonomy

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestTableBitsPinned pins every sentinel to its wire bit. The table is
// append-only: a peer decodes bit i as the sentinel it had at i when it
// was built, so a reorder or a removal silently retypes errors on the
// wire. A new sentinel goes at the end, here and in the table.
func TestTableBitsPinned(t *testing.T) {
	pinned := []error{
		ErrRoundAborted,
		ErrTrapTripped,
		ErrProofRejected,
		ErrMemberLost,
		ErrRecoveryNeeded,
		ErrBadSubmission,
		ErrDuplicateSubmission,
		ErrRoundClosed,
		ErrVariantMismatch,
		ErrNoSuchGroup,
		ErrStateCorrupt,
		ErrConfigMismatch,
		ErrSetupFailed,
		ErrDKGInsufficient,
		ErrServiceClosed,
		ErrResultExpired,
		context.Canceled,
		context.DeadlineExceeded,
		ErrProtocolVersion,
	}
	if len(table) != len(pinned) {
		t.Fatalf("table has %d bits, pinned %d: append new sentinels to both", len(table), len(pinned))
	}
	for i, s := range pinned {
		if table[i] != s {
			t.Errorf("bit %d is %q, pinned to %q", i, table[i], s)
		}
	}
}

// TestHierarchy pins the parent of every child sentinel.
func TestHierarchy(t *testing.T) {
	for child, parent := range map[error]error{
		ErrTrapTripped:         ErrRoundAborted,
		ErrProofRejected:       ErrRoundAborted,
		ErrMemberLost:          ErrRoundAborted,
		ErrDuplicateSubmission: ErrBadSubmission,
		ErrDKGInsufficient:     ErrSetupFailed,
	} {
		if !errors.Is(child, parent) || errors.Is(parent, child) {
			t.Errorf("%q must be a child of %q", child, parent)
		}
	}
}

// matches lists the table sentinels err matches.
func matches(err error) []error {
	var out []error
	for _, s := range table {
		if errors.Is(err, s) {
			out = append(out, s)
		}
	}
	return out
}

func roundTrip(t *testing.T, err error) error {
	t.Helper()
	b := AppendError([]byte("head"), err)
	got, rest, ok := ReadError(append(b[len("head"):], "tail"...))
	if !ok || string(rest) != "tail" {
		t.Fatalf("%v: wire form %x does not decode (ok=%v, rest %q)", err, b, ok, rest)
	}
	return got
}

// TestWireErrorRoundTrip: the rebuilt error matches exactly the
// sentinels the original did, keeps its attribution and its text, and
// nil stays nil in one byte.
func TestWireErrorRoundTrip(t *testing.T) {
	if b := AppendError(nil, nil); !bytes.Equal(b, []byte{0}) {
		t.Fatalf("nil encodes as %x, want 00", b)
	}
	if got := roundTrip(t, nil); got != nil {
		t.Fatalf("nil decodes as %v", got)
	}
	for _, err := range []error{
		errors.New("no sentinel at all"),
		fmt.Errorf("%w: round 3 canceled: %w", ErrRoundAborted, context.Canceled),
		fmt.Errorf("%w: expired: %w", ErrRoundAborted, context.DeadlineExceeded),
		fmt.Errorf("x: %w", ErrDKGInsufficient),
		&Blame{GID: 2, Member: -1, Err: fmt.Errorf("%w: bad batch", ErrProofRejected)},
		&Loss{GID: 1, Member: 3, Err: fmt.Errorf("%w: %w", ErrMemberLost, ErrRecoveryNeeded)},
		&Blame{GID: 4, Member: 1 << 40, Err: &Loss{GID: -7, Member: 2, Err: ErrMemberLost}},
	} {
		got := roundTrip(t, err)
		if fmt.Sprint(matches(got)) != fmt.Sprint(matches(err)) {
			t.Errorf("%v matches %v after the hop, %v before", err, matches(got), matches(err))
		}
		if got.Error() != err.Error() {
			t.Errorf("text %q became %q", err, got)
		}
		var b1, b2 *Blame
		if errors.As(err, &b1) != errors.As(got, &b2) || (b1 != nil && (b1.GID != b2.GID || b1.Member != b2.Member)) {
			t.Errorf("%v: blame %+v became %+v", err, b1, b2)
		}
		var l1, l2 *Loss
		if errors.As(err, &l1) != errors.As(got, &l2) || (l1 != nil && (l1.GID != l2.GID || l1.Member != l2.Member)) {
			t.Errorf("%v: loss %+v became %+v", err, l1, l2)
		}
	}
}

// TestReadErrorRejects: truncations, unknown flags and an empty body
// after a nonzero length are refused; unknown mask bits (a newer peer's
// sentinels) are ignored.
func TestReadErrorRejects(t *testing.T) {
	full := AppendError(nil, &Blame{GID: 1, Member: 2, Err: ErrProofRejected})
	for n := 1; n < len(full); n++ {
		if _, _, ok := ReadError(full[:n]); ok {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(full))
		}
	}
	for _, bad := range [][]byte{{}, {1, 0}, {2, 0, 4}, {3, 0, 1, 0x80}} {
		if _, _, ok := ReadError(bad); ok {
			t.Errorf("%x decoded", bad)
		}
	}
	body := append(binary.AppendUvarint(nil, 1<<40), 0) // bit 40 only, no attribution, no text
	got, _, ok := ReadError(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	if !ok || got == nil || len(matches(got)) != 0 {
		t.Fatalf("an unknown bit decoded as %v (ok=%v), want a plain error", got, ok)
	}
}

// FuzzReadError: the wire-error decoder reads peer bytes (daemon replies,
// fast-path acks, distributed abort reports). It never panics, and what
// it accepts re-encodes to a fixed point.
func FuzzReadError(f *testing.F) {
	f.Add([]byte{0})
	f.Add(AppendError(nil, fmt.Errorf("%w: dup", ErrDuplicateSubmission)))
	f.Add(AppendError(nil, &Blame{GID: 1, Member: 2, Err: ErrProofRejected}))
	f.Add(AppendError(nil, &Loss{GID: 3, Member: -1, Err: fmt.Errorf("%w: %w", ErrMemberLost, ErrRecoveryNeeded)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, ok := ReadError(data)
		if !ok || got == nil {
			return
		}
		enc := AppendError(nil, got)
		again, rest, ok := ReadError(enc)
		if !ok || len(rest) != 0 || !bytes.Equal(AppendError(nil, again), enc) {
			t.Fatalf("re-encode of %x unstable: %x", data, enc)
		}
	})
}
