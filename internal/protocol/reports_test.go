package protocol

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"atom/internal/elgamal"
)

func TestTrapReportsCleanRound(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)

	res, err := mixRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	// Against the round's own commitment sets the exit payloads are clean.
	reports := rs.TrapReports(res.ExitOutputs)
	if len(reports) != cfg.NumGroups {
		t.Fatalf("%d reports", len(reports))
	}
	for _, r := range reports {
		if !r.TrapsOK || !r.InnerOK {
			t.Errorf("clean round flagged by its own commitments: %+v", r)
		}
	}
	// A fresh round's commitment sets are empty, so recomputing reports
	// over the same payloads against it must flag the unexpected traps.
	sawViolation := false
	for _, r := range openRound(t, d).TrapReports(res.ExitOutputs) {
		if !r.TrapsOK {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("a fresh round's TrapReports should flag unexpected traps (its commitment sets are empty)")
	}
}

func TestTrapReportsClassification(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	// One submission so group 0 expects exactly one trap commitment.
	rs := openRound(t, d)
	pk, _ := d.GroupPK(0)
	tpk, _ := rs.TrusteePK()
	sub, err := c.SubmitTrap([]byte("classified"), pk, tpk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitTrapUser(0, sub); err != nil {
		t.Fatal(err)
	}

	// Build the exit payloads by hand: the user's real trap plus one
	// inner ciphertext payload.
	trap, err := makeTrap(0, cfg.PayloadBytes(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	inner := make([]byte, cfg.PayloadBytes())
	inner[0] = kindMessage

	// Case 1: missing trap → group 0 reports TrapsOK = false.
	reports := rs.TrapReports(map[int][][]byte{0: {inner}})
	if reports[0].TrapsOK {
		t.Error("missing committed trap not reported")
	}
	// Case 2: unexpected trap (not matching the commitment).
	reports = rs.TrapReports(map[int][][]byte{0: {trap, inner}})
	if reports[0].TrapsOK {
		t.Error("unexpected trap accepted")
	}
	// Case 3: duplicate inner ciphertexts land at one checking group.
	reports = rs.TrapReports(map[int][][]byte{0: {inner, inner}})
	ok := true
	for _, r := range reports {
		if !r.InnerOK {
			ok = false
		}
	}
	if ok {
		t.Error("duplicate inner ciphertexts not reported")
	}
}

func TestEndToEndQuickProperty(t *testing.T) {
	// Property: for random small message batches and both variants, a
	// clean round returns exactly the submitted multiset.
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed uint16, trapVariant bool) bool {
		variant := VariantNIZK
		if trapVariant {
			variant = VariantTrap
		}
		cfg := Config{
			NumServers:  8,
			NumGroups:   2,
			GroupSize:   2,
			MessageSize: 24,
			Variant:     variant,
			Iterations:  2,
			Seed:        []byte{byte(seed), byte(seed >> 8)},
		}
		d, err := NewDeployment(cfg)
		if err != nil {
			return false
		}
		c, err := NewClient(&cfg)
		if err != nil {
			return false
		}
		rs, err := d.OpenRound()
		if err != nil {
			return false
		}
		users := 2 + int(seed%5)
		want := map[string]int{}
		for u := 0; u < users; u++ {
			gid := u % 2
			pk, _ := d.GroupPK(gid)
			msg := []byte{byte(u), byte(seed), byte(seed >> 8)}
			want[string(msg)]++
			switch variant {
			case VariantNIZK:
				sub, err := c.Submit(msg, pk, gid, rand.Reader)
				if err != nil {
					return false
				}
				if err := rs.SubmitUser(u, sub); err != nil {
					return false
				}
			case VariantTrap:
				tpk, _ := rs.TrusteePK()
				sub, err := c.SubmitTrap(msg, pk, tpk, gid, rand.Reader)
				if err != nil {
					return false
				}
				if err := rs.SubmitTrapUser(u, sub); err != nil {
					return false
				}
			}
		}
		res, err := mixRound(rs)
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, m := range res.Messages {
			got[string(m)]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func TestExitOutputsCoverAllGroups(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 16)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExitOutputs) != cfg.NumGroups {
		t.Fatalf("exit outputs from %d groups, want %d", len(res.ExitOutputs), cfg.NumGroups)
	}
	total := 0
	for gid, payloads := range res.ExitOutputs {
		if gid < 0 || gid >= cfg.NumGroups {
			t.Fatalf("exit output from unknown group %d", gid)
		}
		total += len(payloads)
	}
	if total != 16 {
		t.Fatalf("%d exit payloads, want 16", total)
	}
}

func TestTamperWithVectorStructure(t *testing.T) {
	// A malicious server that changes a vector's SHAPE (drops a
	// component) must be caught by the NIZK shuffle proof's shape check.
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	d.SetAdversary(&Adversary{
		Layer: 0, GID: 0, Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) == 0 || len(batch[0]) < 2 {
				return nil
			}
			out := make([]elgamal.Vector, len(batch))
			copy(out, batch)
			out[0] = batch[0][:len(batch[0])-1]
			return out
		},
	})
	if _, err := mixRound(rs); err == nil {
		t.Fatal("vector-shape tampering went undetected")
	}
}
