package daemon

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// appendSubmitBody encodes subs as an fpSubmit body (count ‖ entries),
// the inverse of parseSubmit.
func appendSubmitBody(dst []byte, subs []fastSub) []byte {
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
// 64 B of fastSub each) and one claiming exactly what the four-byte
// minimum allows are both rejected having allocated next to nothing.
func TestParseSubmitHostileCount(t *testing.T) {
	const n = 1 << 20
	fc := &fastConn{fp: &fastPath{}}
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
	real := make([]fastSub, 64)
	for i := range real {
		real[i] = fastSub{seq: uint64(i + 1), user: i, round: uint64(i % 3), wire: wire}
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

	fc := &fastConn{fp: &fastPath{}}
	fb := &frameBuf{}
	same := func(a, b []fastSub) bool {
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
