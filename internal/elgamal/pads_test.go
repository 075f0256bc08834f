package elgamal

import (
	"context"
	"crypto/rand"
	"testing"

	"atom/internal/ecc"
	"atom/internal/parallel"
)

// fillPool builds a pad pool for base and banks `n` pads drawn from a
// deterministic stream, so two pools filled with the same seed hold
// byte-identical pads.
func fillPool(t *testing.T, base *ecc.Point, n int, seed byte, pool *parallel.Pool) *PadPool {
	t.Helper()
	p := NewPadPool(base)
	if err := p.Fill(n, &streamReader{state: seed}, pool); err != nil {
		t.Fatal(err)
	}
	if len(p.pads) != n {
		t.Fatalf("filled pool holds %d pads, want %d", len(p.pads), n)
	}
	return p
}

// TestPadPoolFillTake: Fill tops up to target (idempotently) with
// well-formed pads and take hands out at most what is banked.
func TestPadPoolFillTake(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := fillPool(t, kp.PK, 10, 5, nil)
	// Topping up to a smaller target is a no-op.
	if err := p.Fill(4, rand.Reader, nil); err != nil {
		t.Fatal(err)
	}
	if len(p.pads) != 10 {
		t.Fatalf("re-fill to smaller target changed size to %d", len(p.pads))
	}
	// Every pad must satisfy GK = g^k, BK = base^k.
	taken := p.take(3)
	if len(taken) != 3 {
		t.Fatalf("take(3) returned %d pads", len(taken))
	}
	for i, pad := range taken {
		if !pad.GK.Equal(ecc.BaseMul(pad.K)) || !pad.BK.Equal(kp.PK.Mul(pad.K)) {
			t.Fatalf("pad %d is not (k, g^k, pk^k)", i)
		}
	}
	// Overdraw: 7 left, ask for 9.
	if got := len(p.take(9)); got != 7 {
		t.Fatalf("overdraw returned %d pads, want 7", got)
	}
}

// TestReEncBatchPadsDeterministicAcrossWorkers: the padded
// decrypt-and-reencrypt matches itself at every worker count, the
// returned randomness opens each slot via the online algebra, and the
// base-mismatch guard falls back to the fresh path.
func TestReEncBatchPadsDeterministicAcrossWorkers(t *testing.T) {
	kp, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	next, err := KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	batch := makeBatch(t, kp.PK, 17)
	refPool := fillPool(t, next.PK, 6, 23, nil)
	ref, _, err := ReEncBatchPads(kp.SK, next.PK, batch, &streamReader{state: 9}, nil, refPool)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pool := parallel.New(context.Background(), workers)
		pads := fillPool(t, next.PK, 6, 23, pool)
		out, rss, err := ReEncBatchPads(kp.SK, next.PK, batch, &streamReader{state: 9}, pool, pads)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if !out[i].Equal(ref[i]) {
				t.Fatalf("workers=%d: output %d diverged", workers, i)
			}
			want := ReEncWithRandomness(kp.SK, next.PK, batch[i][0].Clone(), rss[i][0])
			if !out[i][0].Equal(want) {
				t.Fatalf("workers=%d: randomness %d does not open output", workers, i)
			}
		}
		if len(pads.pads) != 0 {
			t.Fatalf("workers=%d: a 17-slot batch left %d of 6 pads banked", workers, len(pads.pads))
		}
	}

	// A pool banked for the WRONG base must be ignored, not consumed:
	// the output still opens under the right key and the pool keeps
	// every pad.
	wrong := fillPool(t, kp.PK, 6, 23, nil)
	out, rss, err := ReEncBatchPads(kp.SK, next.PK, batch, nil, nil, wrong)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		want := ReEncWithRandomness(kp.SK, next.PK, batch[i][0].Clone(), rss[i][0])
		if !out[i][0].Equal(want) {
			t.Fatalf("mismatched-base fallback: slot %d does not open", i)
		}
	}
	if len(wrong.pads) != 6 {
		t.Fatalf("mismatched-base pool lost pads: %d left", len(wrong.pads))
	}

	// Exit layer (⊥ destination): pads must never be consumed.
	exitPads := fillPool(t, next.PK, 6, 23, nil)
	exitOut, _, err := ReEncBatchPads(kp.SK, nil, batch, nil, nil, exitPads)
	if err != nil {
		t.Fatal(err)
	}
	exitRef, _, err := ReEncBatch(kp.SK, nil, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exitOut {
		if !exitOut[i].Equal(exitRef[i]) {
			t.Fatalf("exit-layer padded output %d diverged from plain path", i)
		}
	}
	if len(exitPads.pads) != 6 {
		t.Fatalf("exit layer consumed pads: %d left", len(exitPads.pads))
	}
}
