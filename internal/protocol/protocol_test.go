package protocol

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/taxonomy"
)

// testConfig is a small but complete deployment: 12 servers, 4 groups of
// 3, square topology with 3 iterations.
func testConfig(variant Variant) Config {
	return Config{
		NumServers:  12,
		NumGroups:   4,
		GroupSize:   3,
		HonestMin:   1,
		MessageSize: 32,
		Variant:     variant,
		Iterations:  3,
		Seed:        []byte("protocol-test"),
	}
}

// openRound opens the round a test submits into and then mixes.
func openRound(t *testing.T, d *Deployment) *RoundState {
	t.Helper()
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// mixRound seals rs and mixes it on the in-process mixer.
func mixRound(rs *RoundState) (*RoundResult, error) {
	return rs.d.RunRoundCtx(context.Background(), rs, nil)
}

// submitAll sends one message per user into rs, spread evenly over entry
// groups, and returns the expected plaintext set.
func submitAll(t *testing.T, rs *RoundState, c *Client, numUsers int) map[string]bool {
	t.Helper()
	d := rs.d
	want := make(map[string]bool, numUsers)
	for u := 0; u < numUsers; u++ {
		gid := u % d.NumGroups()
		msg := []byte(fmt.Sprintf("message from user %02d", u))
		want[string(msg)] = true
		pk, err := d.GroupPK(gid)
		if err != nil {
			t.Fatal(err)
		}
		switch rs.Variant() {
		case VariantNIZK:
			sub, err := c.Submit(msg, pk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitUser(u, sub); err != nil {
				t.Fatal(err)
			}
		case VariantTrap:
			tpk, err := rs.TrusteePK()
			if err != nil {
				t.Fatal(err)
			}
			sub, err := c.SubmitTrap(msg, pk, tpk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitTrapUser(u, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	return want
}

func checkMessages(t *testing.T, res *RoundResult, want map[string]bool) {
	t.Helper()
	if len(res.Messages) != len(want) {
		t.Fatalf("round returned %d messages, want %d", len(res.Messages), len(want))
	}
	for _, m := range res.Messages {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
		delete(want, string(m))
	}
	if len(want) != 0 {
		t.Errorf("%d messages missing: %v", len(want), want)
	}
}

func TestNIZKRoundEndToEnd(t *testing.T) {
	d, err := NewDeployment(testConfig(VariantNIZK))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&Config{})
	if err == nil {
		t.Fatal("NewClient should reject an invalid config")
	}
	cfg := testConfig(VariantNIZK)
	c, err = NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 users → 4 per entry group → every group's batch stays non-empty
	// through every layer, so the shuffle accounting is exact.
	rs := openRound(t, d)
	want := submitAll(t, rs, c, 16)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, res, want)

	// Correctness of the accounting: every live member of every group
	// shuffled once per layer.
	cfgT := d.Config()
	expectShuffles := cfgT.Threshold() * cfgT.NumGroups * cfgT.Iterations
	total := 0
	proofs := 0
	for _, tr := range res.Traces {
		total += tr.Shuffles
		proofs += tr.ProofsChecked
	}
	if total != expectShuffles {
		t.Errorf("%d shuffles performed, want %d", total, expectShuffles)
	}
	if proofs == 0 {
		t.Error("NIZK round verified no proofs")
	}
}

func TestTrapRoundEndToEnd(t *testing.T) {
	cfg := testConfig(VariantTrap)
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
		t.Fatal(err)
	}
	checkMessages(t, res, want)

	// Trap variant must not verify shuffle proofs during mixing.
	for _, tr := range res.Traces {
		if tr.ProofsChecked != 0 {
			t.Error("trap variant checked NIZK proofs during mixing")
		}
	}
	// The exit outputs must contain twice as many payloads as users
	// (trap + message per user).
	payloads := 0
	for _, ps := range res.ExitOutputs {
		payloads += len(ps)
	}
	if payloads != 16 {
		t.Errorf("%d exit payloads, want 16", payloads)
	}
}

func TestButterflyTopologyRound(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	cfg.Topology = "butterfly"
	cfg.ButterflyReps = 2
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	want := submitAll(t, rs, c, 8)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, res, want)
}

func TestNIZKDetectsTamperingServer(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)

	// A malicious middle server in group 1 at layer 1 replaces one
	// ciphertext with a rerandomized copy of another (the duplicate
	// attack). Algorithm 2's shuffle proof must catch it immediately.
	d.SetAdversary(&Adversary{
		Layer:  1,
		GID:    1,
		Member: 1,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) < 2 {
				return nil
			}
			out := make([]elgamal.Vector, len(batch))
			copy(out, batch)
			pk := d.groups[1].PK
			dup, _, err := elgamal.RerandomizeVector(pk, batch[0], rand.Reader)
			if err != nil {
				return nil
			}
			out[1] = dup
			return out
		},
	})
	if _, err := mixRound(rs); err == nil {
		t.Fatal("NIZK round succeeded despite server tampering")
	}
}

func TestTrapDetectsDroppedCiphertext(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)

	// A malicious server drops one ciphertext mid-mix. Counts no longer
	// balance (or a committed trap goes missing), so the trustees refuse
	// to release the key.
	d.SetAdversary(&Adversary{
		Layer:  1,
		GID:    2,
		Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) == 0 {
				return nil
			}
			return batch[:len(batch)-1]
		},
	})
	_, err = mixRound(rs)
	if err == nil {
		t.Fatal("trap round succeeded despite a dropped ciphertext")
	}
	if !errors.Is(err, taxonomy.ErrTrapTripped) {
		t.Fatalf("expected taxonomy.ErrTrapTripped, got %v", err)
	}
	if !rs.trustees.Deleted() {
		t.Error("trustees did not delete their key shares")
	}
}

func TestTrapDetectsDuplicatedCiphertext(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)

	// The §4.4 duplicate attack: replace one ciphertext with a
	// rerandomized copy of another. Whichever way it lands (duplicate
	// trap or duplicate inner ciphertext), detection must fire: either a
	// commitment count mismatch or the duplicate-inner check.
	d.SetAdversary(&Adversary{
		Layer:  0,
		GID:    0,
		Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) < 2 {
				return nil
			}
			out := make([]elgamal.Vector, len(batch))
			copy(out, batch)
			dup, _, err := elgamal.RerandomizeVector(d.groups[0].PK, batch[0], rand.Reader)
			if err != nil {
				return nil
			}
			out[1] = dup
			return out
		},
	})
	_, err = mixRound(rs)
	if err == nil {
		t.Fatal("trap round succeeded despite a duplicated ciphertext")
	}
	if !errors.Is(err, taxonomy.ErrTrapTripped) {
		t.Fatalf("expected taxonomy.ErrTrapTripped, got %v", err)
	}
}

func TestTrapRemovalDoesNotRevealPlaintext(t *testing.T) {
	// §4.4: "the removed inner ciphertexts are always encrypted under at
	// least one honest server's key" — after an abort, the adversary
	// holds no decryption key, and the trustees' shares are gone.
	cfg := testConfig(VariantTrap)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	d.SetAdversary(&Adversary{
		Layer: 1, GID: 0, Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) == 0 {
				return nil
			}
			return batch[:len(batch)-1]
		},
	})
	if _, err := mixRound(rs); err == nil {
		t.Fatal("round should have aborted")
	}
	if !rs.trustees.Deleted() {
		t.Fatal("trustee shares must be deleted on abort")
	}
	// A second release attempt must fail permanently.
	if _, err := rs.trustees.Release(nil); err == nil {
		t.Fatal("released key after deletion")
	}
}

func TestFaultToleranceWithinBudget(t *testing.T) {
	// h=2: every group of 4 can lose one member and keep mixing (§4.5).
	cfg := testConfig(VariantNIZK)
	cfg.GroupSize = 4
	cfg.HonestMin = 2
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	want := submitAll(t, rs, c, 8)

	// Fail one member of every group.
	for gid := 0; gid < cfg.NumGroups; gid++ {
		if err := d.FailGroupMember(gid, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := mixRound(rs)
	if err != nil {
		t.Fatalf("round failed despite being within the fault budget: %v", err)
	}
	checkMessages(t, res, want)
}

func TestFaultBeyondBudgetAbortsThenRecovers(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	cfg.GroupSize = 4
	cfg.HonestMin = 2
	cfg.BuddyCount = 2
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	want := submitAll(t, rs, c, 8)

	// Two failures in group 0 exceed the h−1 = 1 budget.
	if err := d.FailGroupMember(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.FailGroupMember(0, 2); err != nil {
		t.Fatal(err)
	}
	need, err := d.GroupNeedsRecovery(0)
	if err != nil {
		t.Fatal(err)
	}
	if !need {
		t.Fatal("group 0 should need recovery")
	}
	if _, err := mixRound(rs); err == nil {
		t.Fatal("round succeeded with a dead group")
	}

	// Buddy-group recovery (§4.5): fresh servers take over the failed
	// positions, reconstructing shares from the escrow.
	if err := d.RecoverGroup(0, []int{100, 101}); err != nil {
		t.Fatal(err)
	}
	need, _ = d.GroupNeedsRecovery(0)
	if need {
		t.Fatal("group 0 still needs recovery after RecoverGroup")
	}

	// Resubmit (the aborted round was consumed) and rerun.
	rs = openRound(t, d)
	want = submitAll(t, rs, c, 8)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatalf("round failed after recovery: %v", err)
	}
	checkMessages(t, res, want)
}

func TestRecoveryRequiresBuddies(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg) // BuddyCount = 0
	if err := d.RecoverGroup(0, []int{99}); err == nil {
		t.Fatal("recovery without buddy groups should fail")
	}
}

func TestBlameIdentifiesBadCommitment(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 6)

	// User 99 submits a trap whose commitment is wrong: the round must
	// abort and the blame procedure must identify exactly user 99.
	gid := 0
	pk, _ := d.GroupPK(gid)
	tpk, _ := rs.TrusteePK()
	sub, err := c.SubmitTrap([]byte("evil"), pk, tpk, gid, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sub.Commitment = TrapCommitment([]byte("not the real trap"))
	if err := rs.SubmitTrapUser(99, sub); err != nil {
		t.Fatal(err)
	}

	if _, err := mixRound(rs); err == nil {
		t.Fatal("round succeeded with a bad trap commitment")
	}
	report, err := rs.IdentifyMaliciousUsers()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.BadUsers) != 1 || report.BadUsers[0] != 99 {
		t.Fatalf("blame = %v (%v), want exactly user 99", report.BadUsers, report.Reasons)
	}
}

func TestBlameIdentifiesDuplicateInnerCiphertexts(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 6)

	// Users 200 and 201 submit the same inner ciphertext (200 builds a
	// valid submission; 201 clones the inner payload with a fresh trap).
	gid := 1
	pk, _ := d.GroupPK(gid)
	tpk, _ := rs.TrusteePK()
	subA, err := c.SubmitTrap([]byte("copied message"), pk, tpk, gid, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitTrapUser(200, subA); err != nil {
		t.Fatal(err)
	}
	// Craft 201's submission: same decrypted inner payload requires
	// copying the inner plaintext before onion encryption. We rebuild it
	// by decrypting nothing — instead, clone the submission and replace
	// the trap with a fresh valid one.
	subB, err := cloneWithFreshTrap(c, d, subA, gid)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitTrapUser(201, subB); err != nil {
		t.Fatal(err)
	}

	if _, err := mixRound(rs); err == nil {
		t.Fatal("round succeeded with duplicate inner ciphertexts")
	}
	report, err := rs.IdentifyMaliciousUsers()
	if err != nil {
		t.Fatal(err)
	}
	blamed := map[int]bool{}
	for _, u := range report.BadUsers {
		blamed[u] = true
	}
	if !blamed[200] || !blamed[201] {
		t.Fatalf("blame = %v (%v), want users 200 and 201", report.BadUsers, report.Reasons)
	}
}

// cloneWithFreshTrap builds a trap submission whose inner ciphertext
// payload is byte-identical to src's but with a new trap and commitment —
// the §4.6 "duplicate inner ciphertexts" attack. It reaches into the
// deployment's group secret the way a colluding entry group could.
func cloneWithFreshTrap(c *Client, d *Deployment, src *TrapSubmission, gid int) (*TrapSubmission, error) {
	g := d.groups[gid]
	secret, err := d.revealGroupSecret(g)
	if err != nil {
		return nil, err
	}
	// Find which of src's two ciphertexts is the inner message.
	var innerPayload []byte
	for i := 0; i < 2; i++ {
		pts, err := elgamal.DecryptVector(secret, src.Ciphertexts[i])
		if err != nil {
			return nil, err
		}
		payload, err := ecc.ExtractMessage(pts)
		if err != nil || len(payload) == 0 {
			continue
		}
		if payload[0] == kindMessage {
			innerPayload = payload
		}
	}
	if innerPayload == nil {
		return nil, errors.New("no inner payload found")
	}
	trapPayload, err := makeTrap(gid, c.cfg.PayloadBytes(), rand.Reader)
	if err != nil {
		return nil, err
	}
	innerVec, innerProof, err := c.encryptPayload(innerPayload, g.PK, gid, rand.Reader)
	if err != nil {
		return nil, err
	}
	trapVec, trapProof, err := c.encryptPayload(trapPayload, g.PK, gid, rand.Reader)
	if err != nil {
		return nil, err
	}
	return &TrapSubmission{
		GID:         gid,
		Ciphertexts: [2]elgamal.Vector{innerVec, trapVec},
		Proofs:      [2]*nizk.EncProof{innerProof, trapProof},
		Commitment:  TrapCommitment(trapPayload),
	}, nil
}
