package protocol

import (
	"crypto/rand"
	"fmt"
	"testing"

	"atom/internal/ecc"
	"atom/internal/elgamal"
)

// TestTrapDetectionProbability verifies the quantitative heart of §4.4:
// "When a malicious server removes or replaces a ciphertext, there is
// at least 50% chance that the modified ciphertext is a trap message
// because the users submit the ciphertexts in a random order and the
// ciphertexts are indistinguishable."
//
// The adversary replaces exactly one ciphertext in an entry group's
// batch with a fresh, well-formed message ciphertext (so counts still
// balance when it replaced a real message). Over many independent
// rounds, the round must abort roughly half the time — never much less
// (that would mean traps are distinguishable) and never much more.
func TestTrapDetectionProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const trials = 24
	aborts := 0
	for trial := 0; trial < trials; trial++ {
		cfg := Config{
			NumServers:  4,
			NumGroups:   2,
			GroupSize:   2,
			MessageSize: 32,
			Variant:     VariantTrap,
			Iterations:  2,
			Seed:        []byte(fmt.Sprintf("trap-stats-%d", trial)),
		}
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := openRound(t, d)
		for u := 0; u < 4; u++ {
			gid := u % 2
			pk, _ := d.GroupPK(gid)
			tpk, _ := rs.TrusteePK()
			sub, err := c.SubmitTrap([]byte(fmt.Sprintf("m%d", u)), pk, tpk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitTrapUser(u, sub); err != nil {
				t.Fatal(err)
			}
		}
		// The malicious first server of group 0 replaces the batch's
		// first ciphertext with a fresh well-formed "message" of its own.
		d.SetAdversary(&Adversary{
			Layer: 0, GID: 0, Member: 0,
			Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
				payload := make([]byte, cfg.PayloadBytes())
				payload[0] = kindMessage
				if _, err := rand.Read(payload[1:]); err != nil {
					return nil
				}
				pts, err := ecc.EmbedMessage(payload, cfg.NumPoints())
				if err != nil {
					return nil
				}
				vec, _, err := elgamal.EncryptVector(d.groups[0].PK, pts, rand.Reader)
				if err != nil {
					return nil
				}
				out := make([]elgamal.Vector, len(batch))
				copy(out, batch)
				out[0] = vec
				return out
			},
		})
		if _, err := mixRound(rs); err != nil {
			aborts++
		}
	}
	// Binomial(24, 0.5): P(X ≤ 4) ≈ 0.0008, P(X ≥ 20) ≈ 0.0008. The
	// test is deterministic enough for CI while still catching a broken
	// detector (0 aborts) or over-aggressive aborting (24 aborts).
	if aborts <= 4 || aborts >= 20 {
		t.Errorf("replacing one ciphertext aborted %d/%d rounds; §4.4 predicts ≈50%%", aborts, trials)
	}
	t.Logf("abort rate: %d/%d (§4.4 predicts ≈1/2 per replaced ciphertext)", aborts, trials)
}

func TestSubmissionValidation(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	pk, _ := d.GroupPK(0)
	tpk, _ := rs.TrusteePK()

	good, err := c.SubmitTrap([]byte("valid"), pk, tpk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-gid-proof", func(t *testing.T) {
		// Submission built for group 0, delivered claiming group 1: the
		// EncProof's gid binding must reject it.
		bad := *good
		bad.GID = 1
		if err := rs.SubmitTrapUser(1, &bad); err == nil {
			t.Error("wrong-gid submission accepted")
		}
	})
	t.Run("short-commitment", func(t *testing.T) {
		bad := *good
		bad.Commitment = []byte{1, 2, 3}
		if err := rs.SubmitTrapUser(2, &bad); err == nil {
			t.Error("short commitment accepted")
		}
	})
	t.Run("variant-mismatch", func(t *testing.T) {
		if err := rs.SubmitUser(3, &Submission{}); err == nil {
			t.Error("NIZK submission accepted by trap deployment")
		}
	})
	t.Run("bad-group-id", func(t *testing.T) {
		bad := *good
		bad.GID = 99
		if err := rs.SubmitTrapUser(4, &bad); err == nil {
			t.Error("out-of-range group accepted")
		}
	})
	t.Run("accept-then-duplicate-commitment", func(t *testing.T) {
		if err := rs.SubmitTrapUser(5, good); err != nil {
			t.Fatalf("valid submission rejected: %v", err)
		}
		// A different user reusing the same commitment must be rejected
		// (it would make the trap accounting ambiguous).
		other, err := c.SubmitTrap([]byte("other"), pk, tpk, 0, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		other.Commitment = good.Commitment
		if err := rs.SubmitTrapUser(6, other); err == nil {
			t.Error("duplicate trap commitment accepted")
		}
	})
}

func TestNIZKSubmissionValidation(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	pk, _ := d.GroupPK(2)
	sub, err := c.Submit([]byte("x"), pk, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-point-count", func(t *testing.T) {
		bad := *sub
		bad.Ciphertext = sub.Ciphertext[:1]
		if err := rs.SubmitUser(0, &bad); err == nil {
			t.Error("short vector accepted")
		}
	})
	t.Run("mid-chain-Y", func(t *testing.T) {
		bad := *sub
		bad.Ciphertext = sub.Ciphertext.Clone()
		bad.Ciphertext[0].Y = ecc.Generator()
		if err := rs.SubmitUser(0, &bad); err == nil {
			t.Error("Y ≠ ⊥ submission accepted")
		}
	})
	t.Run("trap-on-nizk", func(t *testing.T) {
		if err := rs.SubmitTrapUser(0, &TrapSubmission{}); err == nil {
			t.Error("trap submission accepted by NIZK deployment")
		}
	})
	t.Run("valid", func(t *testing.T) {
		if err := rs.SubmitUser(0, sub); err != nil {
			t.Errorf("valid submission rejected: %v", err)
		}
	})
}

func TestMultiRoundOperation(t *testing.T) {
	// Three consecutive rounds through one deployment: every round starts
	// empty, trustee keys rotate, results stay correct.
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	var prevKey string
	for round := 0; round < 3; round++ {
		want := map[string]bool{}
		rs := openRound(t, d)
		tpk, err := rs.TrusteePK()
		if err != nil {
			t.Fatal(err)
		}
		// The trustee key must have rotated.
		if string(tpk.Bytes()) == prevKey {
			t.Fatalf("round %d: trustee key did not rotate", round)
		}
		prevKey = string(tpk.Bytes())
		for u := 0; u < 8; u++ {
			gid := u % cfg.NumGroups
			pk, _ := d.GroupPK(gid)
			msg := fmt.Sprintf("round %d msg %d", round, u)
			want[msg] = true
			sub, err := c.SubmitTrap([]byte(msg), pk, tpk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitTrapUser(u, sub); err != nil {
				t.Fatal(err)
			}
		}
		res, err := mixRound(rs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkMessages(t, res, want)
	}
}

// TestCleanRoundAfterAbort: an aborted round leaves nothing behind on the
// deployment — the adversary hook was one-shot, and the next round opens
// empty and mixes clean.
func TestCleanRoundAfterAbort(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	d.SetAdversary(&Adversary{
		Layer: 0, GID: 0, Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) == 0 {
				return nil
			}
			return batch[:len(batch)-1]
		},
	})
	if _, err := mixRound(rs); err == nil {
		t.Fatal("round should abort")
	}
	rs = openRound(t, d)
	want := submitAll(t, rs, c, 8)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatalf("post-abort round failed: %v", err)
	}
	checkMessages(t, res, want)
}
