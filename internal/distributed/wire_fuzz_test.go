package distributed

import (
	"bytes"
	"crypto/rand"
	"reflect"
	"testing"

	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/protocol"
	"atom/internal/wirecodec"
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
	out, rss, err := elgamal.ReEncBatchPar(r.Secrets[0], next, in, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb := reencBatch{In: in, Out: out}
	for i := range in {
		p, err := nizk.ProveReEnc(r.Secrets[0], r.EffPubs[0], next, in[i], out[i], rss[i], rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		rb.Proofs = append(rb.Proofs, p.Marshal())
	}
	w := protocol.LayerWork{Msgs: 2, Workers: 1, Shuffles: 4, ReEncs: 2, Proofs: 6, BusyNs: 12345}
	return encodeReEncMsg(1, w, 1, []reencBatch{rb, {}})
}

// sameWork compares two work records up to CodecNs, which every encode
// and decode of a chain message adds its own running time to.
func sameWork(a, b protocol.LayerWork) bool {
	a.CodecNs, b.CodecNs = 0, 0
	return a == b
}

// hopBytes is the canonical hop encoding of a sequence of batches — how
// the fuzz targets compare decoded vectors (the hop layout has exactly
// one spelling per value).
func hopBytes(batches ...[]elgamal.Vector) []byte {
	var e wirecodec.Enc
	for _, b := range batches {
		e.HopVectors(b)
	}
	return e.Out()
}

// FuzzDecodeReEncMsg does the same for the chain's re-encryption
// message, the largest payload a member accepts from a peer: whatever
// decodes must survive a re-encode unchanged (up to the codec-time
// counter the round trip itself advances).
func FuzzDecodeReEncMsg(f *testing.F) {
	f.Add(realReEncMsg(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, w, step, batches, err := decodeReEncMsg(data)
		if err != nil {
			return
		}
		layer2, w2, step2, batches2, err := decodeReEncMsg(encodeReEncMsg(layer, w, step, batches))
		if err != nil || layer2 != layer || !sameWork(w2, w) || step2 != step || len(batches2) != len(batches) {
			t.Fatalf("reenc message re-encode unstable (%v) for input %x", err, data)
		}
		for i, rb := range batches {
			rb2 := batches2[i]
			if !bytes.Equal(hopBytes(rb2.In, rb2.Out), hopBytes(rb.In, rb.Out)) || !reflect.DeepEqual(rb2.Proofs, rb.Proofs) {
				t.Fatalf("reenc batch %d re-encode unstable for input %x", i, data)
			}
		}
	})
}

// realShuffleMsg is a NIZK chain member's shuffle step on the wire:
// input batch, shuffled output, proof.
func realShuffleMsg(t testing.TB) []byte {
	t.Helper()
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	r, err := d.GroupRoster(0)
	if err != nil {
		t.Fatal(err)
	}
	var in []elgamal.Vector
	for _, msg := range []string{"fuzz-0", "fuzz-1", "fuzz-2"} {
		sub, err := c.Submit([]byte(msg), r.PK, 0, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, sub.Ciphertext)
	}
	out, perm, rands, err := elgamal.ShuffleBatchPar(r.PK, in, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := nizk.ProveShufflePar(r.PK, in, out, perm, rands, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return encodeShuffleMsg(2, protocol.LayerWork{Msgs: 3, Workers: 1, Shuffles: 1, BusyNs: 999}, in, out, proof.Marshal())
}

// FuzzDecodeShuffleMsg: the shuffle/divide step a member accepts from
// its predecessor.
func FuzzDecodeShuffleMsg(f *testing.F) {
	f.Add(realShuffleMsg(f))
	f.Add(encodeShuffleMsg(0, protocol.LayerWork{}, nil, nil, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, w, in, out, proof, err := decodeShuffleMsg(data)
		if err != nil {
			return
		}
		layer2, w2, in2, out2, proof2, err := decodeShuffleMsg(encodeShuffleMsg(layer, w, in, out, proof))
		if err != nil || layer2 != layer || !sameWork(w2, w) || !bytes.Equal(proof2, proof) ||
			!bytes.Equal(hopBytes(in2, out2), hopBytes(in, out)) {
			t.Fatalf("shuffle message re-encode unstable (%v) for input %x", err, data)
		}
	})
}

// FuzzDecodeBatchMsg: the batch a first member accepts from the
// coordinator or a previous-layer group. This message carries no work
// record, so its encoding is a pure function and must be a fixed point.
func FuzzDecodeBatchMsg(f *testing.F) {
	_, _, in, out, _, err := decodeShuffleMsg(realShuffleMsg(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeBatchMsg(1, 2, 4, out))
	f.Add(encodeBatchMsg(0, -1, 1, in))
	f.Add(encodeBatchMsg(0, -1, 1, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		layer, src, workers, vecs, err := decodeBatchMsg(data)
		if err != nil {
			return
		}
		enc := encodeBatchMsg(layer, src, workers, vecs)
		layer2, src2, workers2, vecs2, err := decodeBatchMsg(enc)
		if err != nil || layer2 != layer || src2 != src || workers2 != workers ||
			!bytes.Equal(encodeBatchMsg(layer2, src2, workers2, vecs2), enc) {
			t.Fatalf("batch message re-encode unstable (%v) for input %x", err, data)
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
