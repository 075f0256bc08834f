package distributed

import (
	"bytes"
	"crypto/rand"
	"testing"

	"atom/internal/elgamal"
	"atom/internal/protocol"
)

// FuzzUnmarshalMemberConfig drives arbitrary bytes through the join
// payload decoder — it reads coordinator bytes off the wire and a
// member's own state dir. It must fail cleanly, and whatever it accepts
// must re-encode to a fixed point: decode(Marshal(c)) equals c
// byte-for-byte, even when the input used non-minimal varints.
func FuzzUnmarshalMemberConfig(f *testing.F) {
	real, stale := memberConfigVectors(f)
	f.Add(real.Marshal())
	for _, b := range stale {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalMemberConfig(data)
		if err != nil {
			return
		}
		enc := c.Marshal()
		c2, err := UnmarshalMemberConfig(enc)
		if err != nil || !bytes.Equal(c2.Marshal(), enc) {
			t.Fatalf("MemberConfig re-encode unstable (%v) for input %x", err, data)
		}
	})
}

// realReEncMsg is the re-encryption message a NIZK chain member sends
// its successor: two vectors peeled and re-encrypted toward the next
// group, with their proofs.
func realReEncMsg(t testing.TB) []byte {
	t.Helper()
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	r, err := d.GroupRoster(0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := d.GroupPK(1)
	if err != nil {
		t.Fatal(err)
	}
	var in []elgamal.Vector
	for _, msg := range []string{"fuzz-0", "fuzz-1"} {
		sub, err := c.Submit([]byte(msg), r.PK, 0, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, sub.Ciphertext)
	}
	engine := &protocol.MemberEngine{GID: 0, Variant: protocol.VariantNIZK, GroupPK: r.PK}
	step, err := engine.ReEnc(r.Indices[0], r.Secrets[0], r.EffPubs[0], next, in, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rb := reencBatch{In: step.In, Out: step.Out}
	for _, p := range step.Proofs {
		rb.Proofs = append(rb.Proofs, p.Marshal())
	}
	w := work{Msgs: 2, Workers: 1, Shuffles: 4, ReEncs: 2, Proofs: 6, BusyNs: 12345}
	return encodeReEncMsg(1, w, 1, []reencBatch{rb, {}})
}

// FuzzDecodeReEncMsg does the same for the chain's re-encryption
// message, the largest payload a member accepts from a peer.
func FuzzDecodeReEncMsg(f *testing.F) {
	f.Add(realReEncMsg(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, w, step, batches, err := decodeReEncMsg(data)
		if err != nil {
			return
		}
		enc := encodeReEncMsg(layer, w, step, batches)
		layer2, w2, step2, batches2, err := decodeReEncMsg(enc)
		if err != nil || layer2 != layer || w2 != w || step2 != step ||
			!bytes.Equal(encodeReEncMsg(layer2, w2, step2, batches2), enc) {
			t.Fatalf("reenc message re-encode unstable (%v) for input %x", err, data)
		}
	})
}

// FuzzDecodeConfigAck: the two-byte verdict every config message is
// answered with is read by the coordinator off any member's wire. It
// must fail cleanly, and whatever it accepts must re-encode to itself.
func FuzzDecodeConfigAck(f *testing.F) {
	for code := ackAccepted; code <= ackBadConfig; code++ {
		f.Add(encodeConfigAck(code, code%2 == 0))
	}
	f.Add([]byte{})
	f.Add([]byte{1})                                   // the reason-less PR 14 acceptance
	f.Add([]byte{0, 26, 'g', 'r', 'o', 'u', 'p', '-'}) // a PR 15 free-text refusal, truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		code, durable, err := decodeConfigAck(data)
		if err != nil {
			return
		}
		if enc := encodeConfigAck(code, durable); !bytes.Equal(enc, data) {
			t.Fatalf("config ack %x re-encodes to %x", data, enc)
		}
	})
}
