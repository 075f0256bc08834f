package protocol

import (
	"crypto/rand"
	"testing"

	"atom/internal/elgamal"
)

// TestFallbackToNIZKAfterPersistentDisruption exercises the full §4.6
// escalation: a malicious user disrupts a trap round, the blame
// procedure names them, and the deployment falls back to the NIZK
// variant, under which clean rounds proceed and server-side tampering
// is caught proactively.
func TestFallbackToNIZKAfterPersistentDisruption(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 6)

	// The disruptive user submits a trap with a bogus commitment.
	pk, _ := d.GroupPK(0)
	tpk, _ := rs.TrusteePK()
	evil, err := c.SubmitTrap([]byte("dos"), pk, tpk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	evil.Commitment = TrapCommitment([]byte("lies"))
	if err := rs.SubmitTrapUser(666, evil); err != nil {
		t.Fatal(err)
	}
	if _, err := mixRound(rs); err == nil {
		t.Fatal("disrupted round succeeded")
	}
	report, err := rs.IdentifyMaliciousUsers()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.BadUsers) != 1 || report.BadUsers[0] != 666 {
		t.Fatalf("blame = %v", report.BadUsers)
	}

	// Escalate: fall back to NIZKs (§4.6), blacklisting user 666. Rounds
	// opened from here on are NIZK rounds.
	d.SwitchVariant(VariantNIZK)
	nizkCfg := d.Config()
	if nizkCfg.Variant != VariantNIZK {
		t.Fatal("variant did not switch")
	}
	rs = openRound(t, d)
	nc, err := NewClient(&nizkCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for u := 0; u < 8; u++ {
		gid := u % cfg.NumGroups
		gpk, _ := d.GroupPK(gid)
		msg := []byte{byte('a' + u)}
		want[string(msg)] = true
		sub, err := nc.Submit(msg, gpk, gid, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SubmitUser(u, sub); err != nil {
			t.Fatal(err)
		}
	}
	res, err := mixRound(rs)
	if err != nil {
		t.Fatalf("NIZK fallback round failed: %v", err)
	}
	checkMessages(t, res, want)

	// Under NIZKs, server tampering is caught proactively.
	rs = openRound(t, d)
	want2 := map[string]bool{}
	for u := 0; u < 8; u++ {
		gid := u % cfg.NumGroups
		gpk, _ := d.GroupPK(gid)
		msg := []byte{byte('A' + u)}
		want2[string(msg)] = true
		sub, _ := nc.Submit(msg, gpk, gid, rand.Reader)
		if err := rs.SubmitUser(u, sub); err != nil {
			t.Fatal(err)
		}
	}
	d.SetAdversary(&Adversary{
		Layer: 0, GID: 1, Member: 0,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) == 0 {
				return nil
			}
			return batch[:len(batch)-1]
		},
	})
	if _, err := mixRound(rs); err == nil {
		t.Fatal("NIZK fallback failed to catch tampering")
	}
	// Switching back to traps provisions fresh trustees for the rounds
	// that open afterwards; a repeated switch changes nothing.
	d.SwitchVariant(VariantTrap)
	d.SwitchVariant(VariantTrap)
	if _, err := openRound(t, d).TrusteePK(); err != nil {
		t.Fatalf("no trustees after switching back: %v", err)
	}
}
