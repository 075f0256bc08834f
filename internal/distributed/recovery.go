package distributed

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/protocol"
	"atom/internal/transport"
)

// RecoverGroup drives §4.5 buddy-group recovery for a group that has
// fallen below threshold, entirely over the wire: for every failed
// position the coordinator solicits escrow pieces from a live buddy
// group's member actors (msgShareReq/msgShareResp), reconstructs the
// lost share, verifies it against the group's public Feldman
// commitments, installs the given replacement server, and finally
// re-provisions the fleet — the replacement member boots and adopts its
// config like any other, and every member learns the recovered wiring. After it returns nil, Deployment.GroupNeedsRecovery(gid)
// reports false and the next round delivers.
func (c *Cluster) RecoverGroup(ctx context.Context, gid int, replacements []int) error {
	plan, err := c.d.RecoveryPlan(gid)
	if err != nil {
		return err
	}
	if len(plan.Failed) == 0 {
		return nil
	}
	if len(plan.Buddies) == 0 {
		return fmt.Errorf("distributed: group %d has no buddy groups (BuddyCount=0)", gid)
	}
	if len(replacements) < len(plan.Failed) {
		return fmt.Errorf("distributed: need %d replacement servers, have %d", len(plan.Failed), len(replacements))
	}
	for i, pos := range plan.Failed {
		share, err := c.solicitShare(ctx, plan, pos)
		if err != nil {
			return fmt.Errorf("distributed: recovering group %d pos %d: %w", gid, pos, err)
		}
		if err := c.d.InstallRecoveredShare(gid, pos, share, replacements[i]); err != nil {
			return err
		}
		c.logf("distributed: group %d position %d recovered from buddy escrow; server %d installed", gid, pos, replacements[i])
	}
	// Re-provision: replacements get hosts; they and the survivors are
	// configured onto the recovered chain. The epoch lock serializes
	// this against in-flight rounds' churn handling, and the final epoch
	// bump restarts any round that was mixing over the pre-recovery
	// wiring.
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	defer c.bumpEpoch()
	if err := c.settle(ctx); err != nil {
		return fmt.Errorf("distributed: re-provisioning after recovery of group %d: %w", gid, err)
	}
	c.recoveries.Add(1)
	return nil
}

// solicitShare collects threshold-many escrow pieces for (plan.GID,
// pos) from a live buddy group's chain members and reconstructs the
// lost share.
func (c *Cluster) solicitShare(ctx context.Context, plan *protocol.RecoveryPlan, pos int) (*ecc.Scalar, error) {
	ch := make(chan *transport.Message, 64)
	c.shareMu.Lock()
	c.shareCh = ch
	c.shareMu.Unlock()
	defer func() {
		c.shareMu.Lock()
		c.shareCh = nil
		c.shareMu.Unlock()
	}()

	var lastErr error
	for _, buddy := range plan.Buddies {
		v := c.view()
		if buddy < 0 || buddy >= len(v.chains) {
			continue
		}
		asked := 0
		for _, mpos := range v.chains[buddy] {
			addr := ""
			c.mu.Lock()
			addr = c.addrs[MemberID{GID: buddy, Pos: mpos}]
			c.mu.Unlock()
			if addr == "" {
				continue
			}
			if err := c.coord.SendCtx(ctx, addr, &transport.Message{
				Type: msgShareReq, Payload: encodeShareReqMsg(plan.GID, pos),
			}); err == nil {
				asked++
			}
		}
		if asked < plan.Threshold {
			lastErr = fmt.Errorf("buddy group %d has only %d reachable members, need %d", buddy, asked, plan.Threshold)
			continue
		}
		pieces := make(map[int]*ecc.Scalar)
		deadline := time.After(controlTimeout)
	collect:
		for len(pieces) < plan.Threshold {
			select {
			case msg := <-ch:
				gid, rpos, idx, piece, err := decodeShareRespMsg(msg.Payload)
				if err != nil || gid != plan.GID || rpos != pos {
					continue
				}
				// Only members of the solicited buddy group may
				// contribute, and only under their own DVSS index.
				c.mu.Lock()
				id, known := c.memberOf[msg.From]
				c.mu.Unlock()
				if !known || id.GID != buddy || id.Pos != idx-1 {
					continue
				}
				// Verify the piece against the escrow's commitments
				// before it can enter reconstruction — one byzantine
				// buddy member must not be able to wedge recovery when
				// threshold-many honest pieces exist.
				if verr := c.d.CheckEscrowPiece(plan.GID, buddy, pos, idx, piece); verr != nil {
					c.logf("distributed: discarding invalid escrow piece from g%d/m%d: %v", id.GID, id.Pos, verr)
					continue
				}
				pieces[idx] = piece
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-deadline:
				lastErr = fmt.Errorf("buddy group %d returned %d escrow pieces within %v, need %d",
					buddy, len(pieces), controlTimeout, plan.Threshold)
				break collect
			}
		}
		if len(pieces) < plan.Threshold {
			continue
		}
		indices := make([]int, 0, len(pieces))
		for idx := range pieces {
			indices = append(indices, idx)
		}
		sort.Ints(indices)
		indices = indices[:plan.Threshold]
		ordered := make([]*ecc.Scalar, len(indices))
		for i, idx := range indices {
			ordered[i] = pieces[idx]
		}
		share, err := dvss.RecoverShare(indices, ordered)
		if err != nil {
			lastErr = err
			continue
		}
		c.sharesSolicited.Add(1)
		return share, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no live buddy group")
	}
	return nil, lastErr
}
