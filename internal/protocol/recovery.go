package protocol

import (
	"fmt"
	"sort"

	"atom/internal/dvss"
	"atom/internal/ecc"
)

// FailServer marks the server as crashed in every group it belongs to
// and returns the affected group ids. Groups keep operating as long as
// at least k−(h−1) members remain (§4.5); beyond that RunRound fails and
// RecoverGroup must be invoked.
func (d *Deployment) FailServer(serverID int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var affected []int
	for _, g := range d.groups {
		for pos, m := range g.Info.Members {
			if m == serverID {
				if !g.failed[pos] {
					g.failed[pos] = true
					affected = append(affected, g.Info.ID)
				}
			}
		}
	}
	return affected
}

// FailGroupMember fails the member at the given position of one group
// only (useful for targeted fault-injection tests).
func (d *Deployment) FailGroupMember(gid, pos int) error {
	g, err := d.groupFor(gid)
	if err != nil {
		return err
	}
	if pos < 0 || pos >= len(g.Info.Members) {
		return fmt.Errorf("protocol: group %d has no member position %d", gid, pos)
	}
	d.mu.Lock()
	g.failed[pos] = true
	d.mu.Unlock()
	return nil
}

// GroupNeedsRecovery reports whether the group has lost more members
// than its fault budget h−1 covers.
func (d *Deployment) GroupNeedsRecovery(gid int) (bool, error) {
	g, err := d.groupFor(gid)
	if err != nil {
		return false, err
	}
	_, aerr := g.Active()
	return aerr != nil, nil
}

// GroupLiveMembers returns the count of non-failed members of a group
// (k when healthy, shrinking toward the threshold as crashes accrue) —
// the degraded-membership number StepTraces and IterationStats report.
func (d *Deployment) GroupLiveMembers(gid int) (int, error) {
	g, err := d.groupFor(gid)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return g.LiveMembers(), nil
}

// RecoveryPlan describes what §4.5 buddy-group recovery of a group
// requires: which positions are down, which buddy groups hold the
// escrowed shares, and how many escrow pieces reconstruct each one.
type RecoveryPlan struct {
	// GID is the group to recover.
	GID int
	// Failed lists the failed member positions (0-based).
	Failed []int
	// Buddies lists the buddy group ids holding this group's escrows.
	Buddies []int
	// Threshold is how many distinct escrow pieces reconstruct one
	// share.
	Threshold int
}

// RecoveryPlan reports a group's current recovery requirements — the
// distributed engine uses it to drive share solicitation over the wire.
func (d *Deployment) RecoveryPlan(gid int) (*RecoveryPlan, error) {
	g, err := d.groupFor(gid)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	plan := &RecoveryPlan{GID: gid, Threshold: g.threshold}
	plan.Buddies = append(plan.Buddies, g.Info.Buddies...)
	for pos := range g.Info.Members {
		if g.failed[pos] {
			plan.Failed = append(plan.Failed, pos)
		}
	}
	sort.Ints(plan.Failed)
	return plan, nil
}

// EscrowPiece is one escrowed share fragment a buddy-group member
// holds: its piece of the re-sharing of group GID's member at position
// Pos (§4.5).
type EscrowPiece struct {
	// GID and Pos identify whose share the piece helps reconstruct.
	GID int
	Pos int
	// Piece is this buddy member's fragment of the re-shared share.
	Piece *ecc.Scalar
}

// EscrowPieces exports the escrow fragments held by one member (1-based
// DVSS index) of a buddy group — the material a distributed deployment
// provisions each server with so recovery can run over the wire without
// any central party holding the escrows. The in-process escrow map
// stands in for the DKG-time re-sharing that would have placed them
// there.
func (d *Deployment) EscrowPieces(buddyGID, memberIdx int) []EscrowPiece {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []EscrowPiece
	for key, esc := range d.escrows {
		if key.buddy != buddyGID || memberIdx < 1 || memberIdx > len(esc.Pieces) {
			continue
		}
		out = append(out, EscrowPiece{GID: key.gid, Pos: key.pos, Piece: esc.Pieces[memberIdx-1]})
	}
	// The escrow map iterates in random order; keep the wire form
	// canonical.
	sort.Slice(out, func(i, j int) bool {
		if out[i].GID != out[j].GID {
			return out[i].GID < out[j].GID
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// CheckEscrowPiece verifies one wire-solicited escrow fragment — buddy
// group member idx's piece of the re-sharing of group gid's share at
// pos — against the escrow's Feldman commitments. A byzantine buddy
// member's corrupted piece fails here and is dropped BEFORE it can
// poison the Lagrange reconstruction (which would otherwise combine it
// silently and only fail at the final share verification, wedging
// recovery even though threshold-many honest pieces exist).
func (d *Deployment) CheckEscrowPiece(gid, buddy, pos, idx int, piece *ecc.Scalar) error {
	d.mu.Lock()
	esc, ok := d.escrows[escrowKey{gid, buddy, pos}]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("protocol: no escrow for group %d pos %d at buddy %d", gid, pos, buddy)
	}
	return dvss.VerifyEscrowPiece(esc, idx, piece, nil)
}

// InstallRecoveredShare completes one position's §4.5 recovery with a
// share reconstructed elsewhere (e.g. from wire-solicited buddy escrow
// pieces): the share is verified against the group's public Feldman
// commitments — a corrupted or mis-reconstructed share never installs —
// and the replacement server takes over the position.
func (d *Deployment) InstallRecoveredShare(gid, pos int, share *ecc.Scalar, replacement int) error {
	g, err := d.groupFor(gid)
	if err != nil {
		return err
	}
	if pos < 0 || pos >= len(g.Info.Members) {
		return fmt.Errorf("protocol: group %d has no member position %d", gid, pos)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !g.failed[pos] {
		return fmt.Errorf("protocol: group %d position %d is not failed", gid, pos)
	}
	return g.installShareLocked(pos, share, replacement)
}

// installShareLocked verifies a recovered share for failed position pos
// against the group's public Feldman commitments — a corrupted or
// mis-reconstructed share never installs — and hands the position to
// the replacement server. Callers hold d.mu.
func (g *GroupState) installShareLocked(pos int, share *ecc.Scalar, replacement int) error {
	if err := dvss.VerifyShare(g.Keys[pos].Commitments, pos+1, share); err != nil {
		return fmt.Errorf("protocol: recovered share invalid: %w", err)
	}
	g.Keys[pos] = &dvss.GroupKey{
		PK:          g.PK,
		Share:       share,
		Index:       pos + 1,
		Threshold:   g.threshold,
		Size:        len(g.Info.Members),
		Commitments: g.Keys[pos].Commitments,
	}
	g.Info.Members[pos] = replacement
	delete(g.failed, pos)
	return nil
}

// RecoverGroup rebuilds the failed members of a group from the share
// escrows held by one of its buddy groups (§4.5): for each failed
// position, threshold-many buddy members contribute their escrow pieces,
// the replacement server reconstructs the lost share, verifies it
// against the group's public Feldman commitments, and takes over the
// position. replacements[i] is the server id standing in for the i-th
// failed position (extra entries ignored; too few is an error).
func (d *Deployment) RecoverGroup(gid int, replacements []int) error {
	g, err := d.groupFor(gid)
	if err != nil {
		return err
	}
	if len(g.Info.Buddies) == 0 {
		return fmt.Errorf("protocol: group %d has no buddy groups (BuddyCount=0)", gid)
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	var failedPositions []int
	for pos := range g.Info.Members {
		if g.failed[pos] {
			failedPositions = append(failedPositions, pos)
		}
	}
	if len(failedPositions) == 0 {
		return nil
	}
	if len(replacements) < len(failedPositions) {
		return fmt.Errorf("protocol: need %d replacement servers, have %d",
			len(failedPositions), len(replacements))
	}

	// Find a live buddy group to recover from.
	var buddy *GroupState
	var buddyID int
	for _, b := range g.Info.Buddies {
		cand := d.groups[b]
		if _, err := cand.Active(); err == nil {
			buddy = cand
			buddyID = b
			break
		}
	}
	if buddy == nil {
		return fmt.Errorf("protocol: group %d has no live buddy group", gid)
	}

	for i, pos := range failedPositions {
		esc, ok := d.escrows[escrowKey{gid, buddyID, pos}]
		if !ok {
			return fmt.Errorf("protocol: no escrow for group %d pos %d at buddy %d", gid, pos, buddyID)
		}
		// threshold-many live buddy members hand over their pieces.
		active, err := buddy.Active()
		if err != nil {
			return err
		}
		pieces := make([]*ecc.Scalar, len(active))
		for pi, idx := range active {
			pieces[pi] = esc.Pieces[idx-1]
		}
		share, err := dvss.RecoverShare(active, pieces)
		if err != nil {
			return fmt.Errorf("protocol: recovering group %d pos %d: %w", gid, pos, err)
		}
		if err := g.installShareLocked(pos, share, replacements[i]); err != nil {
			return err
		}
	}
	return nil
}
