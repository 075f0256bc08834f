package elgamal

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"testing"

	"atom/internal/ecc"
	"atom/internal/parallel"
)

func makeBatch(t testing.TB, pk *ecc.Point, n int) []Vector {
	t.Helper()
	batch := make([]Vector, n)
	for i := range batch {
		m, err := ecc.EmbedChunk(fmt.Appendf(nil, "batch message %06d", i))
		if err != nil {
			t.Fatal(err)
		}
		ct, _, err := Encrypt(pk, m, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = Vector{ct}
	}
	return batch
}

// A deterministic byte stream, NOT safe for concurrent use — exactly
// the kind of reader the serial-randomness-draw design must tolerate.
type streamReader struct{ state byte }

func (s *streamReader) Read(b []byte) (int, error) {
	for i := range b {
		s.state = s.state*31 + 17
		b[i] = s.state
	}
	return len(b), nil
}

// TestShuffleBatchParMatchesSerial: the parallel shuffle must produce
// byte-identical output to the serial one when fed the same randomness
// stream, at every worker count.
func TestShuffleBatchParMatchesSerial(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	batch := makeBatch(t, kp.PK, 33)
	ref, refPerm, _, err := ShuffleBatch(kp.PK, batch, &streamReader{state: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		pool := parallel.New(context.Background(), workers)
		out, perm, rands, err := ShuffleBatchPar(kp.PK, batch, &streamReader{state: 7}, pool)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range perm {
			if perm[i] != refPerm[i] {
				t.Fatalf("workers=%d: permutation diverged at %d", workers, i)
			}
		}
		for i := range out {
			if !out[i].Equal(ref[i]) {
				t.Fatalf("workers=%d: output %d diverged", workers, i)
			}
		}
		// The returned randomness must actually open the shuffle.
		for i := range out {
			want := RerandomizeWithRandomness(kp.PK, batch[perm[i]][0], rands[i][0])
			if !out[i][0].Equal(want) {
				t.Fatalf("workers=%d: randomness %d does not open output", workers, i)
			}
		}
	}
}

func TestReEncBatchParMatchesSerial(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	next, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	batch := makeBatch(t, kp.PK, 19)
	ref, _, err := ReEncBatch(kp.SK, next.PK, batch, &streamReader{state: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.New(context.Background(), 8)
	out, _, err := ReEncBatchPar(kp.SK, next.PK, batch, &streamReader{state: 3}, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !out[i].Equal(ref[i]) {
			t.Fatalf("parallel reenc output %d diverged", i)
		}
	}
	// Exit layer (nextPK = ⊥): decryption completes and matches too.
	exitRef, _, err := ReEncBatch(kp.SK, nil, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	exitPar, _, err := ReEncBatchPar(kp.SK, nil, batch, nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exitPar {
		if !exitPar[i].Equal(exitRef[i]) {
			t.Fatalf("parallel exit reenc output %d diverged", i)
		}
	}
}

// TestReEncBatchesMatchesPerBatch: one server step over several
// destinations — one shared peel walk — must equal successive
// ReEncBatchPar calls on the same randomness stream, output for output
// and scalar for scalar, at every worker count; empty batches and an
// exit (nil key) batch among them included, and the exit plaintexts
// must decode.
func TestReEncBatchesMatchesPerBatch(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var keys []*ecc.Point
	for i := 0; i < 2; i++ {
		next, err := KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, next.PK)
	}
	nextPKs := []*ecc.Point{keys[0], nil, keys[1], keys[0], nil}
	batches := [][]Vector{
		makeBatch(t, kp.PK, 40),
		makeBatch(t, kp.PK, 9),
		makeBatch(t, kp.PK, 27),
		nil,
		makeBatch(t, kp.PK, 0),
	}
	// A multi-point vector, so slot and vector offsets differ.
	batches[2][3] = append(batches[2][3], batches[2][4][0], batches[2][5][0])

	rnd := &streamReader{state: 5}
	var refs [][]Vector
	var refRands [][][]*ecc.Scalar
	for b, batch := range batches {
		out, rs, err := ReEncBatchPar(kp.SK, nextPKs[b], batch, rnd, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs, refRands = append(refs, out), append(refRands, rs)
	}
	for _, workers := range []int{1, 4} {
		pool := parallel.New(context.Background(), workers)
		outs, rands, err := ReEncBatches(kp.SK, nextPKs, batches, &streamReader{state: 5}, pool)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for b := range batches {
			if len(outs[b]) != len(batches[b]) || len(rands[b]) != len(batches[b]) {
				t.Fatalf("workers=%d batch %d: %d outputs, %d rands for %d vectors", workers, b, len(outs[b]), len(rands[b]), len(batches[b]))
			}
			for i := range outs[b] {
				if !bytes.Equal(outs[b][i].Marshal(), refs[b][i].Marshal()) {
					t.Fatalf("workers=%d batch %d: output %d diverged", workers, b, i)
				}
				for j, k := range rands[b][i] {
					if !bytes.Equal(k.Bytes(), refRands[b][i][j].Bytes()) {
						t.Fatalf("workers=%d batch %d: randomness %d.%d diverged", workers, b, i, j)
					}
				}
			}
		}
		for i, vec := range outs[1] {
			got, err := ecc.ExtractChunk(vec[0].C)
			if err != nil || string(got) != fmt.Sprintf("batch message %06d", i) {
				t.Fatalf("workers=%d: exit plaintext %d = %q, %v", workers, i, got, err)
			}
		}
	}
	if _, _, err := ReEncBatches(kp.SK, nextPKs[:2], batches, nil, nil); err == nil {
		t.Fatal("ReEncBatches accepted more batches than keys")
	}
}

// TestMarshalLargeVectorRoundTrip exercises the varint length encoding
// at and beyond the 255-component boundary where the previous one-byte
// prefix silently wrapped.
func TestMarshalLargeVectorRoundTrip(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ecc.EmbedChunk([]byte("boundary"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 255, 256, 300} {
		v := make(Vector, n)
		for i := range v {
			ct, _, err := Encrypt(kp.PK, m, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ct.Y = ecc.BaseMul(ecc.NewScalar(int64(i + 1))) // exercise the Y flag too
			v[i] = ct
		}
		enc := v.Marshal()
		got, err := UnmarshalVector(enc)
		if err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: round-tripped to %d components", n, len(got))
		}
		if n > 0 && !got.Equal(v) {
			t.Fatalf("n=%d: round trip not equal", n)
		}
		if !bytes.Equal(got.Marshal(), enc) {
			t.Fatalf("n=%d: re-marshal differs", n)
		}
	}
}

// TestUnmarshalRejectsBogusCount: a forged huge count must be rejected
// before allocation, not trusted.
func TestUnmarshalRejectsBogusCount(t *testing.T) {
	var buf bytes.Buffer
	writeUvarint(&buf, 1<<40)
	buf.WriteByte(0)
	if _, err := UnmarshalVector(buf.Bytes()); err == nil {
		t.Fatal("bogus component count accepted")
	}
}
