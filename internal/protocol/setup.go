package protocol

import (
	"context"
	"fmt"
	"io"
	"time"

	"atom/internal/beacon"
	"atom/internal/dkg"
	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/groupmgr"
	"atom/internal/taxonomy"
)

// This file is the deployment's trust-establishment surface. The
// historical constructor (NewDeployment) plays a trusted dealer: it
// samples groups from the deterministic hash-chain beacon and hands
// every group its DVSS keys via dvss.RunDKG, which generates the secret
// in one place. Setup removes both roles: group formation can be driven
// by any beacon.Source — in particular a publicly verifiable
// beacon.Chain — and group keys can come from a real joint-Feldman
// ceremony (internal/dkg) in which no party ever holds a group secret.

// Setup selects where a deployment's trust roots come from. The zero
// value (or a nil *Setup) reproduces the legacy trusted-dealer
// construction exactly.
type Setup struct {
	// Source supplies the public randomness that samples the groups.
	// Nil selects the deterministic hash-chain beacon seeded by
	// cfg.Seed. A verifiable beacon.Chain makes group formation
	// publicly auditable.
	Source beacon.Source
	// Round is the beacon round whose output forms the groups. The
	// source must already hold it; a missing round is a setup error,
	// never degenerate randomness.
	Round uint64
	// GroupKeys, when non-nil, supplies group gid's threshold key
	// material — typically the product of a joint-Feldman ceremony —
	// instead of the in-process trusted dealer. The returned slice must
	// hold one key per member in position order (Keys[pos].Index ==
	// pos+1), every key opening one shared commitment vector under one
	// group public key; validation failures abort construction.
	GroupKeys func(gid int, members []int, threshold int) ([]*dvss.GroupKey, error)
}

// NewDeploymentSetup is NewDeployment with explicit trust roots: the
// beacon source and round that sample the groups, and the ceremony that
// produces each group's threshold key. A nil setup (or nil fields)
// falls back to the trusted-dealer defaults field by field.
func NewDeploymentSetup(cfg Config, setup *Setup) (*Deployment, error) {
	var s Setup
	if setup != nil {
		s = *setup
	}
	return newDeployment(cfg, s)
}

// DKGGroupKeys returns a Setup.GroupKeys hook that runs a real
// joint-Feldman ceremony per group over an in-memory transport: every
// member deals a fresh secret, verifies its peers' deals, votes, and
// derives its own share of a key whose secret no single party ever
// held. window is the per-phase message window (0 selects the dkg
// package default); rnd is the shared entropy source (nil selects
// crypto/rand) and must be safe for concurrent use.
func DKGGroupKeys(window time.Duration, rnd io.Reader) func(gid int, members []int, threshold int) ([]*dvss.GroupKey, error) {
	return func(gid int, members []int, threshold int) ([]*dvss.GroupKey, error) {
		seats, err := dkg.Ceremony(context.Background(), len(members), threshold, dkg.Opts{
			Window:  window,
			Session: uint64(gid),
			Rand:    rnd,
		})
		if err != nil {
			return nil, fmt.Errorf("protocol: group %d ceremony: %w", gid, err)
		}
		keys := make([]*dvss.GroupKey, len(members))
		for _, seat := range seats {
			if seat.Err != nil {
				return nil, fmt.Errorf("protocol: group %d member %d: %w", gid, seat.Index, seat.Err)
			}
			if seat.Index < 1 || seat.Index > len(keys) || seat.Result == nil || seat.Result.Key == nil {
				return nil, fmt.Errorf("protocol: group %d ceremony returned no key for seat %d", gid, seat.Index)
			}
			keys[seat.Index-1] = seat.Result.Key
		}
		return keys, nil
	}
}

// newGroupStateFromKeys builds a group around externally produced
// threshold keys (a DKG ceremony's output) instead of running the
// trusted dealer. Every key is validated against the shared commitment
// vector before it installs, so a corrupted or mismatched ceremony
// output can never mix.
func newGroupStateFromKeys(info *groupmgr.Group, threshold int, keys []*dvss.GroupKey) (*GroupState, error) {
	if err := validateGroupKeys(info, threshold, keys); err != nil {
		return nil, err
	}
	ecc.WarmBase(keys[0].PK)
	return &GroupState{
		Info:      info,
		Keys:      keys,
		PK:        keys[0].PK,
		failed:    make(map[int]bool),
		threshold: threshold,
	}, nil
}

// validateGroupKeys enforces the Setup.GroupKeys contract: one key per
// member in position order, a single public key and commitment vector,
// and every share opening the commitments at its index.
func validateGroupKeys(info *groupmgr.Group, threshold int, keys []*dvss.GroupKey) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("protocol: group %d keys: %s", info.ID, fmt.Sprintf(format, args...))
	}
	if len(keys) != len(info.Members) {
		return fail("%d keys for %d members", len(keys), len(info.Members))
	}
	ref := keys[0]
	if ref == nil || ref.PK == nil || len(ref.Commitments) == 0 {
		return fail("first key missing public material")
	}
	for pos, k := range keys {
		switch {
		case k == nil:
			return fail("position %d is nil", pos)
		case k.Index != pos+1:
			return fail("position %d has index %d", pos, k.Index)
		case k.Threshold != threshold:
			return fail("position %d has threshold %d, want %d", pos, k.Threshold, threshold)
		case k.PK == nil || !k.PK.Equal(ref.PK):
			return fail("position %d disagrees on the group public key", pos)
		case len(k.Commitments) != len(ref.Commitments):
			return fail("position %d has %d commitments, want %d", pos, len(k.Commitments), len(ref.Commitments))
		}
		for ci, c := range k.Commitments {
			if c == nil || !c.Equal(ref.Commitments[ci]) {
				return fail("position %d disagrees on commitment %d", pos, ci)
			}
		}
		if err := dvss.VerifyShare(k.Commitments, k.Index, k.Share); err != nil {
			return fail("position %d share fails its commitments: %v", pos, err)
		}
	}
	return nil
}

// GroupMembers returns a copy of group gid's current roster (nil for
// an unknown group) — what resharing epochs rotate.
func (d *Deployment) GroupMembers(gid int) []int {
	g, err := d.groupFor(gid)
	if err != nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), g.Info.Members...)
}

// ReshareGroup runs one resharing epoch for a group: a threshold-sized
// subset of live members deals Lagrange-scaled shares of the existing
// secret to the full new roster, the member at outPos rotates out
// (dealing its last shares when the live budget needs it), and
// newServer takes over that position with a fresh share. The group public key is unchanged — ciphertexts
// encrypted before the epoch stay decryptable after it — while the
// departed member's share becomes useless (its point lies on the old
// polynomial, not the new one). Buddy escrows of this group's shares
// are refreshed to the new sharing.
//
// window is the per-phase ceremony window (0 selects the dkg default).
// Reshare between rounds: a round mixing concurrently could otherwise
// observe a mixed key set.
func (d *Deployment) ReshareGroup(gid, outPos, newServer int, window time.Duration) error {
	g, err := d.groupFor(gid)
	if err != nil {
		return err
	}
	k := len(g.Info.Members)
	if outPos < 0 || outPos >= k {
		return fmt.Errorf("protocol: group %d has no member position %d", gid, outPos)
	}

	// Snapshot the dealing material under the lock; the ceremony itself
	// runs without it (it sleeps through message windows).
	d.mu.Lock()
	oldKeys := append([]*dvss.GroupKey(nil), g.Keys...)
	// Staying live members deal first; when the spare budget is too
	// thin without it (h = 1 means threshold = k), the departing member
	// deals its last shares too — a planned rotation has its
	// cooperation, unlike a crash, which needs buddy recovery instead.
	var dealers []int
	for pos := 0; pos < k && len(dealers) < g.threshold; pos++ {
		if pos == outPos || g.failed[pos] {
			continue
		}
		dealers = append(dealers, pos+1)
	}
	if len(dealers) < g.threshold && !g.failed[outPos] {
		dealers = append(dealers, outPos+1)
	}
	threshold := g.threshold
	oldPK := g.PK
	d.mu.Unlock()
	if len(dealers) < threshold {
		return fmt.Errorf("%w: group %d has %d live members to deal a resharing, needs %d",
			taxonomy.ErrRecoveryNeeded, gid, len(dealers), threshold)
	}

	stay := make(map[int]int, len(dealers))
	for _, idx := range dealers {
		if idx != outPos+1 {
			stay[idx] = idx
		}
	}
	seats, err := dkg.ReshareCeremony(context.Background(), dkg.Reshare{
		Keys:         oldKeys,
		Dealers:      dealers,
		NewSize:      k,
		NewThreshold: threshold,
		Stay:         stay,
	}, dkg.Opts{Window: window, Session: uint64(gid)})
	if err != nil {
		return fmt.Errorf("protocol: group %d resharing: %w", gid, err)
	}
	newKeys := make([]*dvss.GroupKey, k)
	for _, seat := range seats {
		if seat.Index < 1 {
			continue // dealer-only seat
		}
		if seat.Err != nil {
			return fmt.Errorf("protocol: group %d resharing member %d: %w", gid, seat.Index, seat.Err)
		}
		if seat.Result == nil || seat.Result.Key == nil {
			return fmt.Errorf("protocol: group %d resharing returned no key for seat %d", gid, seat.Index)
		}
		newKeys[seat.Index-1] = seat.Result.Key
	}
	for pos, nk := range newKeys {
		if nk == nil {
			return fmt.Errorf("protocol: group %d resharing left position %d without a key", gid, pos)
		}
	}
	// The load-bearing invariant: resharing must preserve the group
	// public key, or every ciphertext in flight becomes garbage.
	if !newKeys[0].PK.Equal(oldPK) {
		return fmt.Errorf("protocol: group %d resharing changed the public key", gid)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	g.Keys = newKeys
	g.Info.Members[outPos] = newServer
	delete(g.failed, outPos)
	// Refresh this group's buddy escrows: the old escrowed shares
	// reconstruct points on the retired polynomial.
	if d.cfg.BuddyCount > 0 {
		for _, buddy := range g.Info.Buddies {
			bsize := len(d.groups[buddy].Info.Members)
			for pos := range g.Info.Members {
				esc, err := dvss.EscrowShare(pos+1, g.Keys[pos].Share, bsize, d.cfg.Threshold(), d.rnd)
				if err != nil {
					return fmt.Errorf("protocol: re-escrow group %d pos %d: %w", gid, pos, err)
				}
				d.escrows[escrowKey{gid, buddy, pos}] = esc
			}
		}
	}
	return nil
}
