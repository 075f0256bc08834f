package wirecodec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"atom/internal/ecc"
	"atom/internal/elgamal"
)

// hopPoint returns a random group element, in Jacobian (Z ≠ 1) form —
// what arithmetic hands the encoder — when jac is set.
func hopPoint(rng *rand.Rand, jac bool) *ecc.Point {
	var b [32]byte
	rng.Read(b[:])
	p := ecc.BaseMul(ecc.ScalarFromBytes(b[:]))
	if jac {
		p = p.Add(ecc.Generator())
	}
	return p
}

// hopBatch builds a batch of n vectors of the given width whose
// ciphertexts cycle through the shapes a chain message carries: plain
// (R, C), mid-chain (R, C, Y), first-touch (R = identity with Y set),
// with every other point left in Jacobian form.
func hopBatch(rng *rand.Rand, n, width int) []elgamal.Vector {
	out := make([]elgamal.Vector, n)
	k := 0
	for i := range out {
		out[i] = make(elgamal.Vector, width)
		for j := range out[i] {
			ct := &elgamal.Ciphertext{R: hopPoint(rng, k%2 == 1), C: hopPoint(rng, k%3 == 1)}
			switch k % 3 {
			case 1:
				ct.Y = hopPoint(rng, k%2 == 0)
			case 2:
				ct.R, ct.Y = ecc.Identity(), hopPoint(rng, true)
			}
			out[i][j] = ct
			k++
		}
	}
	return out
}

func hopEncode(vs []elgamal.Vector) []byte {
	var e Enc
	e.HopVectors(vs)
	return e.Out()
}

func hopDecode(t testing.TB, b []byte) []elgamal.Vector {
	t.Helper()
	d := NewDec(b)
	vs, err := d.HopVectors()
	if err != nil {
		t.Fatalf("hop decode: %v", err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("hop decode: %v", err)
	}
	return vs
}

// TestHopMatchesCanonicalCodec: for random batches — empty ones, empty
// vectors, identity R, Jacobian points, Y present and absent — the hop
// round trip yields exactly what the canonical compressed codec's round
// trip yields, and the canonical bytes of the result are unchanged.
func TestHopMatchesCanonicalCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := [][2]int{{0, 0}, {1, 0}, {1, 1}, {3, 2}, {7, 5}, {64, 3}}
	for _, shape := range shapes {
		batch := hopBatch(rng, shape[0], shape[1])
		got := hopDecode(t, hopEncode(batch))
		if len(got) != len(batch) {
			t.Fatalf("%v: decoded %d vectors, want %d", shape, len(got), len(batch))
		}
		for i, v := range batch {
			want, err := elgamal.UnmarshalVector(v.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			if got[i] == nil || len(got[i]) != len(want) || !got[i].Equal(want) {
				t.Fatalf("%v: vector %d differs from the canonical codec's round trip", shape, i)
			}
			if !bytes.Equal(got[i].Marshal(), v.Marshal()) {
				t.Fatalf("%v: vector %d changed its canonical encoding across a hop", shape, i)
			}
		}
	}
}

// TestHopDecodeIsolatesVectors: the decoded vectors share slabs, so an
// append to one must reallocate rather than overwrite its neighbour.
func TestHopDecodeIsolatesVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vs := hopDecode(t, hopEncode(hopBatch(rng, 2, 2)))
	first := vs[1][0]
	_ = append(vs[0], &elgamal.Ciphertext{})
	if vs[1][0] != first {
		t.Fatal("appending to vector 0 overwrote vector 1")
	}
}

// TestHopEncodeConcurrentReaders runs encoders over vectors other
// goroutines are reading (and encoding) at the same time: the encoder
// must only ever read its input. Meaningful under -race.
func TestHopEncodeConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	batch := hopBatch(rng, 16, 2)
	want := hopEncode(batch)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					if !bytes.Equal(hopEncode(batch), want) {
						t.Error("concurrent encodes disagree")
					}
					continue
				}
				for _, v := range batch {
					_ = v.Marshal()
					for _, ct := range v {
						_ = ct.C.Equal(ct.R)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// hopSeeds are well-formed and malformed hop encodings: every way a
// chain peer can get a point or a count wrong.
func hopSeeds() map[string][]byte {
	rng := rand.New(rand.NewSource(23))
	g := ecc.Generator()
	one := func(ct *elgamal.Ciphertext) []byte { return hopEncode([]elgamal.Vector{{ct}}) }
	good := one(&elgamal.Ciphertext{R: g, C: hopPoint(rng, false), Y: hopPoint(rng, true)})
	// good = count 1 | width 1 | flag 1 | R | C | Y; R's x starts at 4.
	const rx, ry, pointsAt = 4, 36, 3
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	allOnes := bytes.Repeat([]byte{0xff}, 32)
	return map[string][]byte{
		"good":               good,
		"batch":              hopEncode(hopBatch(rng, 5, 3)),
		"empty batch":        hopEncode(nil),
		"empty vector":       hopEncode([]elgamal.Vector{{}}),
		"identity":           one(&elgamal.Ciphertext{R: ecc.Identity(), C: g, Y: g}),
		"off-curve point":    mutate(func(b []byte) { b[len(b)-1] ^= 1 }),
		"x >= p":             mutate(func(b []byte) { copy(b[rx:], allOnes) }),
		"y >= p":             mutate(func(b []byte) { copy(b[ry:], allOnes) }),
		"wrong tag":          mutate(func(b []byte) { b[pointsAt] = 2 }),
		"bad flag":           mutate(func(b []byte) { b[2] = 3 }),
		"truncated point":    good[:len(good)-7],
		"missing point":      good[:len(good)-ecc.UncompressedLen],
		"oversized count":    binary.AppendUvarint(nil, 1<<40),
		"count beyond input": {200, 1, 1},
		"non-minimal count":  append([]byte{0x81, 0x00}, good[1:]...),
		"trailing bytes":     append(append([]byte(nil), good...), 0xAA, 0xBB),
	}
}

// TestHopDecodeRejects pins which seeds decode and which do not.
func TestHopDecodeRejects(t *testing.T) {
	accepted := map[string]bool{
		"good": true, "batch": true, "empty batch": true, "empty vector": true,
		"identity": true, "trailing bytes": true, // trailing input is Dec.Done's to refuse
	}
	for name, b := range hopSeeds() {
		d := NewDec(b)
		_, err := d.HopVectors()
		if (err == nil) != accepted[name] {
			t.Errorf("%s: err = %v, want accepted = %v", name, err, accepted[name])
		}
		if name == "trailing bytes" && (d.Len() != 2 || d.Done() == nil) {
			t.Errorf("trailing bytes: %d bytes left after the batch, Done = %v", d.Len(), d.Done())
		}
	}
}

// FuzzDecodeHopVectors: arbitrary bytes must fail cleanly or decode to
// vectors whose every point is on the curve, and re-encoding what was
// decoded must reproduce the consumed input bit for bit — the hop
// layout has no second spelling of anything.
func FuzzDecodeHopVectors(f *testing.F) {
	for _, b := range hopSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		vs, err := d.HopVectors()
		if err != nil {
			return
		}
		for _, v := range vs {
			for _, ct := range v {
				if !ct.R.OnCurve() || !ct.C.OnCurve() || (ct.Y != nil && !ct.Y.OnCurve()) {
					t.Fatalf("accepted an off-curve point from %x", data)
				}
			}
		}
		consumed := data[:len(data)-d.Len()]
		if enc := hopEncode(vs); !bytes.Equal(enc, consumed) {
			t.Fatalf("decode→encode changed %x into %x", consumed, enc)
		}
	})
}

var benchSink int

// BenchmarkHopCodec1024 prices one hop — encode, then decode — of the
// vectors of a 1 024-ciphertext trap re-encryption message: Y present,
// points Jacobian as the peel leaves them. CI holds its allocs/op under
// a ceiling a per-ciphertext allocation would break.
func BenchmarkHopCodec1024(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	batch := make([]elgamal.Vector, 1024)
	for i := range batch {
		batch[i] = elgamal.Vector{{R: hopPoint(rng, true), C: hopPoint(rng, true), Y: hopPoint(rng, true)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, err := NewDec(hopEncode(batch)).HopVectors()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(vs)
	}
}
