package daemon

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// BenchmarkSubmitPath measures the submit framing hot loop: a client
// encoding a 64-submission pipelined frame, and the server parsing it
// with pooled buffers and zero-copy wire slices. Crypto is excluded —
// this is the per-frame overhead the binary protocol adds on top of
// admission, and CI budgets its allocs/op.
func BenchmarkSubmitPath(b *testing.B) {
	wire := bytes.Repeat([]byte{0xA7}, 600) // typical NIZK submission size
	const perFrame = 64
	srv := &Server{}
	srv.bufs.New = func() any { return &frameBuf{pool: &srv.bufs} }
	fc := &conn{s: srv}
	var entries []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Client half: append pipelined entries and frame them.
		entries = entries[:0]
		for s := 0; s < perFrame; s++ {
			entries = binary.AppendUvarint(entries, uint64(i*perFrame+s+1))
			entries = binary.AppendUvarint(entries, uint64(s))
			entries = binary.AppendUvarint(entries, 0)
			entries = binary.AppendUvarint(entries, uint64(len(wire)))
			entries = append(entries, wire...)
		}
		// Server half: pooled frame buffer, zero-copy parse, refcounted
		// release as each submission finishes.
		fb := srv.bufs.Get().(*frameBuf)
		need := 1 + binary.MaxVarintLen64 + len(entries)
		if cap(fb.b) < need {
			fb.b = make([]byte, 0, need)
		}
		fb.b = append(fb.b[:0], typeSubmit)
		fb.b = binary.AppendUvarint(fb.b, perFrame)
		fb.b = append(fb.b, entries...)
		subs, ok := fc.parseSubmit(fb, fb.b[1:])
		if !ok || len(subs) != perFrame {
			b.Fatal("frame did not parse")
		}
		fb.refs.Store(perFrame)
		for _, s := range subs {
			if len(s.wire) != len(wire) {
				b.Fatal("wire slice corrupted")
			}
			s.frame.release()
		}
	}
	b.SetBytes(int64(perFrame * len(wire)))
}
