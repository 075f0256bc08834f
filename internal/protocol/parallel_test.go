package protocol

import (
	"context"
	"crypto/rand"
	"errors"
	"strings"
	"testing"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/taxonomy"
)

// mixWorkersConfig is testConfig with an explicit worker-pool size for
// the parallel mixing engine.
func mixWorkersConfig(variant Variant, workers int) Config {
	cfg := testConfig(variant)
	cfg.Mix = MixConfig{Workers: workers}
	return cfg
}

// TestParallelMixingMatchesSerial: the same deployment mixed with one
// worker and with a pool of four must anonymize the same submissions
// into byte-identical plaintext sets — the worker pool may only change
// the schedule of the crypto, never its outcome. Run with -race this
// also shakes out data races in the pooled iteration.
func TestParallelMixingMatchesSerial(t *testing.T) {
	for _, variant := range []Variant{VariantNIZK, VariantTrap} {
		var baseline []string
		for _, workers := range []int{1, 4} {
			cfg := mixWorkersConfig(variant, workers)
			d, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClient(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs := openRound(t, d)
			want := submitAll(t, rs, c, 8)
			res, err := mixRound(rs)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", variant, workers, err)
			}
			checkMessages(t, res, want)
			got := make([]string, len(res.Messages))
			for i, m := range res.Messages {
				got[i] = string(m)
			}
			if workers == 1 {
				baseline = got
				continue
			}
			if len(got) != len(baseline) {
				t.Fatalf("%v: workers=4 produced %d messages, workers=1 produced %d", variant, len(got), len(baseline))
			}
			for i := range got {
				if got[i] != baseline[i] {
					t.Fatalf("%v: plaintext %d diverged between workers=1 and workers=4", variant, i)
				}
			}
			// The observability hooks must report the configured pool and
			// nonzero busy time for the real work done.
			for _, it := range res.Iterations {
				if it.Workers != 4 {
					t.Fatalf("%v: iteration reports %d workers, want 4", variant, it.Workers)
				}
				if it.ActiveGroups == 0 || it.WorkerBusy <= 0 {
					t.Fatalf("%v: iteration reports no pool activity: %+v", variant, it)
				}
			}
		}
	}
}

// TestParallelShuffleTamperAborts: a shape-preserving duplicate attack
// by a middle server must abort the round with ErrProofRejected even
// when shuffle proofs are verified concurrently across members by the
// worker pool — the pool's first-error semantics may not swallow the
// rejection.
func TestParallelShuffleTamperAborts(t *testing.T) {
	cfg := mixWorkersConfig(VariantNIZK, 4)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	d.SetAdversary(&Adversary{
		Layer: 1, GID: 1, Member: 1,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) < 2 {
				return nil
			}
			out := make([]elgamal.Vector, len(batch))
			copy(out, batch)
			dup, _, err := elgamal.RerandomizeVector(d.groups[1].PK, batch[0], rand.Reader)
			if err != nil {
				return nil
			}
			out[1] = dup
			return out
		},
	})
	_, err = mixRound(rs)
	if !errors.Is(err, taxonomy.ErrProofRejected) {
		t.Fatalf("got %v, want taxonomy.ErrProofRejected", err)
	}
	if !strings.Contains(err.Error(), "shuffle rejected") {
		t.Fatalf("rejection not attributed to the shuffle stage: %v", err)
	}
}

// TestParallelReEncTamperAborts: a member whose secret share is
// corrupted re-encrypts with a key that no longer matches its public
// share commitment, so its ReEncProof must fail — and the failure must
// survive the batched random-linear-combination verification and the
// worker pool, aborting the round with ErrProofRejected.
func TestParallelReEncTamperAborts(t *testing.T) {
	cfg := mixWorkersConfig(VariantNIZK, 4)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	// Corrupt group 2, member 0's secret share; the public commitments
	// (what verifiers use) are untouched.
	gk := d.groups[2].Keys[0]
	gk.Share = gk.Share.Add(ecc.NewScalar(1))
	_, err = mixRound(rs)
	if !errors.Is(err, taxonomy.ErrProofRejected) {
		t.Fatalf("got %v, want taxonomy.ErrProofRejected", err)
	}
	if !strings.Contains(err.Error(), "reencryption rejected") {
		t.Fatalf("rejection not attributed to the reencryption stage: %v", err)
	}
}

// TestCancellationIsNotBlamedOnMembers: a context canceled while the
// worker pools are mid-iteration must surface as a cancellation —
// never as ErrProofRejected naming an innocent member, and never as a
// nil-point panic inside a pooled proof computation.
func TestCancellationIsNotBlamedOnMembers(t *testing.T) {
	cfg := mixWorkersConfig(VariantNIZK, 4)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The adversary hook fires mid-iteration (after group 0, member 0's
	// layer-1 shuffle) — cancel there so the pools observe a context
	// that dies while proof generation and verification are in flight.
	d.SetAdversary(&Adversary{
		Layer: 1, GID: 0, Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			cancel()
			return nil // no tampering: every proof stays honest
		},
	})
	_, err = d.RunRoundCtx(ctx, rs, nil)
	if err == nil {
		t.Fatal("canceled round succeeded")
	}
	if errors.Is(err, taxonomy.ErrProofRejected) {
		t.Fatalf("cancellation misclassified as a proof rejection: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation lost from the error chain: %v", err)
	}
}

// TestPerRoundMixConfigOverride: SetMixConfig on a round overrides the
// deployment knob for that round only.
func TestPerRoundMixConfigOverride(t *testing.T) {
	cfg := mixWorkersConfig(VariantTrap, 1)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	if rs.MixConfig().Workers != 1 {
		t.Fatalf("round inherited %d workers, want 1", rs.MixConfig().Workers)
	}
	rs.SetMixConfig(MixConfig{Workers: 3})
	for u := 0; u < 4; u++ {
		pk, err := d.GroupPK(u % d.NumGroups())
		if err != nil {
			t.Fatal(err)
		}
		tpk, err := rs.TrusteePK()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.SubmitTrap([]byte("override msg"), pk, tpk, u%d.NumGroups(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SubmitTrapUser(u, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.RunRoundCtx(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.Workers != 3 {
			t.Fatalf("iteration ran with %d workers, want the per-round override 3", it.Workers)
		}
	}
	// The deployment's own knob is untouched for later rounds.
	if got := d.Config().Mix.Workers; got != 1 {
		t.Fatalf("deployment knob changed to %d", got)
	}
}
