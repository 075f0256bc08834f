package protocol

import (
	"context"
	"errors"
	"testing"

	"atom/internal/taxonomy"
)

// A restored deployment must carry the original keys: users who
// encrypted against the pre-crash group keys still decrypt after the
// coordinator comes back.
func TestDeploymentStateRoundtrip(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := d.MarshalState()

	d2, err := RestoreDeployment(cfg, state, 0)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < d.NumGroups(); gid++ {
		pk, _ := d.GroupPK(gid)
		pk2, _ := d2.GroupPK(gid)
		if !pk.Equal(pk2) {
			t.Fatalf("group %d public key changed across restore", gid)
		}
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := openRound(t, d2)
	want := submitAll(t, rs, c, 16)
	res, err := mixRound(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, res, want)
}

// The escrow table survives restore, so post-crash buddy recovery (for
// members that really are lost) still works.
func TestRestorePreservesEscrows(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	cfg.BuddyCount = 2
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := RestoreDeployment(cfg, d.MarshalState(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.escrows) == 0 || len(d2.escrows) != len(d.escrows) {
		t.Fatalf("restored %d escrows, want %d", len(d2.escrows), len(d.escrows))
	}
}

// A share that no longer opens its Feldman commitments must be refused
// at restore, not surface later as a round that cannot decrypt.
func TestRestoreRejectsTamperedShare(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two members' shares: each still looks like a scalar, but
	// neither verifies at its index.
	keys := d.groups[0].Keys
	keys[0].Share, keys[1].Share = keys[1].Share, keys[0].Share
	if _, err := RestoreDeployment(cfg, d.MarshalState(), 0); !errors.Is(err, taxonomy.ErrStateCorrupt) {
		t.Fatalf("RestoreDeployment = %v, want taxonomy.ErrStateCorrupt", err)
	}
}

func TestRestoreRejectsTruncatedState(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := d.MarshalState()
	if _, err := RestoreDeployment(cfg, state[:len(state)/2], 0); !errors.Is(err, taxonomy.ErrStateCorrupt) {
		t.Fatalf("RestoreDeployment = %v, want taxonomy.ErrStateCorrupt", err)
	}
}

// Coordinator crash between seal and mix: the journaled sealed round,
// restored against a restored deployment, mixes to the original
// plaintext set — the no-admitted-message-lost guarantee.
func TestSealedRoundRoundtrip(t *testing.T) {
	for _, variant := range []Variant{VariantNIZK, VariantTrap} {
		t.Run(variant.String(), func(t *testing.T) {
			cfg := testConfig(variant)
			d, err := NewDeployment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClient(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs := openRound(t, d)
			want := submitAll(t, rs, c, 16)
			sealed, err := d.SealRound(rs)
			if err != nil {
				t.Fatal(err)
			}
			blob := sealed.Marshal()
			state := d.MarshalState()

			// "Restart": fresh deployment from persisted state, sealed
			// round re-adopted from its journal record.
			d2, err := RestoreDeployment(cfg, state, 0)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := d2.RestoreSealedRound(blob)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Round() != sealed.Round() || restored.Admitted() != sealed.Admitted() {
				t.Fatalf("restored round %d/%d, want %d/%d",
					restored.Round(), restored.Admitted(), sealed.Round(), sealed.Admitted())
			}
			res, err := d2.MixSealed(context.Background(), restored, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkMessages(t, res, want)

			// The sequencer must have advanced past the replayed id: the
			// next round cannot collide with it.
			next, err := d2.OpenRound()
			if err != nil {
				t.Fatal(err)
			}
			if next.ID() <= restored.Round() {
				t.Fatalf("new round id %d not past replayed id %d", next.ID(), restored.Round())
			}
		})
	}
}

func TestRestoreSealedRoundRejectsGarbage(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RestoreSealedRound([]byte{sealedVersion, 1, 2, 3}); !errors.Is(err, taxonomy.ErrStateCorrupt) {
		t.Fatalf("RestoreSealedRound = %v, want taxonomy.ErrStateCorrupt", err)
	}
}
