package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"atom/internal/taxonomy"
)

// appendSubmitBody encodes subs as an fpSubmit body (count ‖ entries),
// the inverse of parseSubmit.
func appendSubmitBody(dst []byte, subs []sub) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(subs)))
	for _, s := range subs {
		dst = binary.AppendUvarint(dst, s.seq)
		dst = binary.AppendUvarint(dst, uint64(s.user))
		dst = binary.AppendUvarint(dst, s.round)
		dst = binary.AppendUvarint(dst, uint64(len(s.wire)))
		dst = append(dst, s.wire...)
	}
	return dst
}

// hostileCountBody is a body whose count field claims count entries over
// n bytes of garbage no entry can be parsed from.
func hostileCountBody(count uint64, n int) []byte {
	return append(binary.AppendUvarint(nil, count), bytes.Repeat([]byte{0xff}, n)...)
}

// TestParseSubmitHostileCount: the entry count is an unauthenticated
// peer's claim, so it must not size an allocation. A frame claiming as
// many entries as it has bytes (the most the old bound let through, at
// 64 B of sub each) and one claiming exactly what the four-byte
// minimum allows are both rejected having allocated next to nothing.
func TestParseSubmitHostileCount(t *testing.T) {
	const n = 1 << 20
	fc := &conn{s: &Server{}}
	for name, count := range map[string]uint64{"count=len": n, "count=len/4": n / 4} {
		body := hostileCountBody(count, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		subs, ok := fc.parseSubmit(&frameBuf{}, body)
		runtime.ReadMemStats(&after)
		if ok || subs != nil {
			t.Errorf("%s: garbage frame parsed into %d submissions", name, len(subs))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes, want < 1 MiB", name, len(body), got)
		}
	}
}

// FuzzParseSubmitFrame: parseSubmit never panics on peer bytes, and what
// it accepts it understood — re-encoding the parsed entries gives a body
// that parses to the same entries, byte-identical to the input whenever
// the input spent no more bytes than the canonical encoding does.
func FuzzParseSubmitFrame(f *testing.F) {
	wire := bytes.Repeat([]byte{0xa7}, 600) // typical NIZK submission size
	real := make([]sub, 64)
	for i := range real {
		real[i] = sub{seq: uint64(i + 1), user: i, round: uint64(i % 3), wire: wire}
	}
	frame := appendSubmitBody(nil, real)
	f.Add(frame)
	f.Add(frame[:len(frame)-1])                                      // truncated wire
	f.Add(frame[:len(frame)-len(wire)-2])                            // truncated header
	f.Add(append(frame[:len(frame):len(frame)], 0))                  // trailing byte
	f.Add(append(binary.AppendUvarint(nil, 1), 1, 0, 0, 0xff, 0x7f)) // wire length past the body
	f.Add(hostileCountBody(4096, 4096))
	f.Add(hostileCountBody(1024, 4096))
	f.Add([]byte{})
	f.Add([]byte{0})

	fc := &conn{s: &Server{}}
	fb := &frameBuf{}
	same := func(a, b []sub) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].seq != b[i].seq || a[i].user != b[i].user || a[i].round != b[i].round || !bytes.Equal(a[i].wire, b[i].wire) {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		subs, ok := fc.parseSubmit(fb, body)
		if !ok {
			return
		}
		canon := appendSubmitBody(nil, subs)
		if len(canon) > len(body) {
			t.Fatalf("canonical encoding (%d B) longer than the accepted body (%d B)", len(canon), len(body))
		}
		if len(canon) == len(body) && !bytes.Equal(canon, body) {
			t.Fatalf("re-encoding differs from the canonical-length body it was parsed from")
		}
		again, ok := fc.parseSubmit(fb, canon)
		if !ok || !same(subs, again) {
			t.Fatalf("re-encoded body does not parse back to the same %d entries", len(subs))
		}
	})
}

// settleAcks parses an ack body the way FastClient's reader does, with a
// callback pending for every seq below 256, and returns the verdicts in
// frame order (each as its re-encodable ack) plus whether the body
// parsed and every verdict found its submission.
func settleAcks(body []byte) ([]ack, bool) {
	var got []ack
	fc := &FastClient{pending: make(map[uint64]func(uint64, error))}
	for seq := uint64(0); seq < 256; seq++ {
		fc.pending[seq] = func(round uint64, err error) { got = append(got, ack{seq: seq, round: round, err: err}) }
	}
	if !fc.handleAcks(body) {
		return nil, false
	}
	count, _, _ := uvarint(body)
	return got, count == uint64(len(got))
}

// FuzzHandleAcks: FastClient.handleAcks parses server bytes. It never
// panics, and a frame whose every verdict settled re-encodes to verdicts
// with the same seqs, rounds and typed errors.
func FuzzHandleAcks(f *testing.F) {
	f.Add(appendAcks(nil, []ack{{seq: 1, round: 4}, {seq: 2, err: fmt.Errorf("%w: replay", taxonomy.ErrDuplicateSubmission)}}))
	f.Add(appendAcks(nil, []ack{{seq: 3, err: &taxonomy.Blame{GID: 1, Member: 2, Err: taxonomy.ErrProofRejected}}}))
	f.Add(append(binary.AppendUvarint(nil, 1<<40), 1, 0, 2)) // count past the body
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		acks, ok := settleAcks(body)
		if !ok {
			return
		}
		again, ok := settleAcks(appendAcks(nil, acks))
		if !ok || len(again) != len(acks) {
			t.Fatalf("re-encoded %d acks parse back as %d (ok=%v)", len(acks), len(again), ok)
		}
		for i := range acks {
			a, b := acks[i], again[i]
			if a.seq != b.seq || a.round != b.round || (a.err == nil) != (b.err == nil) ||
				(a.err != nil && !reflect.DeepEqual(answerOf(a.err), answerOf(b.err))) {
				t.Fatalf("ack %d: %+v re-parsed as %+v", i, a, b)
			}
		}
	})
}

// FuzzParseCall: the info and await request decoders read client bytes.
// They never panic, and what they accept is exactly the canonical
// encoding of the seq (and round) they decoded, or a longer spelling
// of it.
func FuzzParseCall(f *testing.F) {
	f.Add(typeInfo, binary.AppendUvarint(nil, 7))
	f.Add(typeAwait, binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1<<40))
	f.Add(typeAwait, binary.AppendUvarint(nil, 7)) // round missing
	f.Add(typeInfo, []byte{1, 0})                  // trailing byte
	f.Add(typeInfo, []byte{})
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		seq, round, ok := parseCall(typ, body)
		if !ok {
			return
		}
		canon := binary.AppendUvarint(nil, seq)
		if typ == typeAwait {
			canon = binary.AppendUvarint(canon, round)
		} else if round != 0 {
			t.Fatalf("a type-%d request decoded a round", typ)
		}
		if len(canon) > len(body) || (len(canon) == len(body) && !bytes.Equal(canon, body)) {
			t.Fatalf("%x decoded as seq %d round %d", body, seq, round)
		}
	})
}

// FuzzParseReply: the info and await reply decoders read daemon bytes.
// They never panic, and what they accept re-encodes to a body that
// decodes to the same reply.
func FuzzParseReply(f *testing.F) {
	info := &Info{Groups: 2, MessageSize: 32, Trap: true, EntryKeys: [][]byte{{2, 1}, {3, 4}},
		Round: RoundInfo{ID: 9, TrusteeKey: []byte{2, 9, 9}}}
	f.Add(appendInfoReply(nil, 1, info, nil))
	f.Add(appendInfoReply(nil, 2, nil, fmt.Errorf("%w: not yet", taxonomy.ErrServiceClosed)))
	f.Add(appendAwaitReply(nil, 3, [][]byte{[]byte("a"), {}, []byte("ccc")}, nil))
	f.Add(appendAwaitReply(nil, 4, nil, &taxonomy.Loss{GID: 1, Member: 2, Err: taxonomy.ErrMemberLost}))
	f.Add(append(binary.AppendUvarint([]byte{5, 0}, 1<<40), 1, 2)) // count past the body
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if seq, info, err, ok := parseInfoReply(body); ok {
			seq2, info2, err2, ok := parseInfoReply(appendInfoReply(nil, seq, info, err))
			if !ok || seq2 != seq || !reflect.DeepEqual(info2, info) || !reflect.DeepEqual(answerOf(err2), answerOf(err)) {
				t.Fatalf("info reply %x does not survive a re-encode", body)
			}
		}
		if seq, msgs, err, ok := parseAwaitReply(body); ok {
			seq2, msgs2, err2, ok := parseAwaitReply(appendAwaitReply(nil, seq, msgs, err))
			if !ok || seq2 != seq || len(msgs2) != len(msgs) || !reflect.DeepEqual(answerOf(err2), answerOf(err)) {
				t.Fatalf("await reply %x does not survive a re-encode", body)
			}
			for i := range msgs {
				if !bytes.Equal(msgs[i], msgs2[i]) {
					t.Fatalf("await reply %x: message %d changed in a re-encode", body, i)
				}
			}
		}
	})
}
