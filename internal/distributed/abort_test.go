package distributed

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"atom"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// abortAnswer is what a coordinator (or a caller past it) can learn
// from an abort without parsing its text.
func abortAnswer(err error) string {
	var out []string
	for _, s := range []error{
		atom.ErrRoundAborted, atom.ErrTrapTripped, atom.ErrProofRejected, atom.ErrMemberLost,
		atom.ErrRecoveryNeeded, context.Canceled, context.DeadlineExceeded,
	} {
		if errors.Is(err, s) {
			out = append(out, s.Error())
		}
	}
	gid, m, ok := atom.BlamedMember(err)
	lgid, lm, lok := atom.LostMember(err)
	return fmt.Sprintf("%q blame=%v:%d/%d loss=%v:%d/%d", out, ok, gid, m, lok, lgid, lm)
}

// TestAbortReportSameAnswer is the distributed leg of the daemon's
// TestTaxonomySameAnswerEveryPath: every round abort a member can report
// reaches the coordinator over memnet as a dist/abort with the same
// sentinels and the same Blame/Loss attribution it had at the member.
func TestAbortReportSameAnswer(t *testing.T) {
	net := transport.NewMemNetwork(nil, 16)
	member, err := net.Attach("member")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := net.Attach("coord")
	if err != nil {
		t.Fatal(err)
	}
	for name, abort := range map[string]error{
		"trap tripped":   fmt.Errorf("%w: exit report of group 2 unclean", taxonomy.ErrTrapTripped),
		"proof rejected": &taxonomy.Blame{GID: 1, Member: 2, Err: fmt.Errorf("%w: group 1 aborts — member 2 shuffle rejected", taxonomy.ErrProofRejected)},
		"bad batch":      &taxonomy.Blame{GID: 3, Member: -1, Err: fmt.Errorf("%w: group 0 aborts — group 3's first member sent a bad batch", taxonomy.ErrProofRejected)},
		"member lost":    &taxonomy.Loss{GID: 2, Member: -1, Err: fmt.Errorf("%w: peer x unreachable: %w", taxonomy.ErrMemberLost, transport.ErrClosed)},
		"past budget": &taxonomy.Loss{GID: 1, Member: 2, Err: fmt.Errorf(
			"%w: round 4: group 1 lost member 2: %w", taxonomy.ErrMemberLost, taxonomy.ErrRecoveryNeeded)},
		"cancel":   fmt.Errorf("%w: mixing canceled: %w", taxonomy.ErrRoundAborted, context.Canceled),
		"deadline": fmt.Errorf("%w: mixing canceled: %w", taxonomy.ErrRoundAborted, context.DeadlineExceeded),
	} {
		if err := member.Send("coord", &transport.Message{Type: msgAbort, Round: 9, Payload: encodeAbortMsg(2, abort)}); err != nil {
			t.Fatal(err)
		}
		msg := <-coord.Inbox()
		layer, got, err := decodeAbortMsg(msg.Payload)
		if err != nil || layer != 2 {
			t.Fatalf("%s: abort report decoded as layer %d, %v", name, layer, err)
		}
		if a, b := abortAnswer(abort), abortAnswer(got); a != b {
			t.Errorf("%s: member answers %s, coordinator %s", name, a, b)
		}
	}
}

// FuzzDecodeAbortMsg: the coordinator decodes abort reports from member
// bytes. It never panics, and what it accepts re-encodes to a fixed
// point.
func FuzzDecodeAbortMsg(f *testing.F) {
	f.Add(encodeAbortMsg(0, &taxonomy.Blame{GID: 1, Member: 2, Err: taxonomy.ErrProofRejected}))
	f.Add(encodeAbortMsg(3, &taxonomy.Loss{GID: 0, Member: -1, Err: taxonomy.ErrMemberLost}))
	f.Add(encodeAbortMsg(1, errors.New("internal")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, abort, err := decodeAbortMsg(data)
		if err != nil {
			return
		}
		enc := encodeAbortMsg(layer, abort)
		layer2, abort2, err := decodeAbortMsg(enc)
		if err != nil || layer2 != layer || string(encodeAbortMsg(layer2, abort2)) != string(enc) {
			t.Fatalf("abort re-encode unstable (%v) for input %x", err, data)
		}
	})
}
