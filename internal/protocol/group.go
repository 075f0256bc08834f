package protocol

import (
	"fmt"
	"io"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/groupmgr"
)

// GroupState is one anytrust/many-trust group's view of a round: its
// sampled membership, its DVSS threshold key material, the set of failed
// members, and the batch it is currently holding.
type GroupState struct {
	Info *groupmgr.Group
	// Keys[pos] is member pos's share of this group's key (DVSS index
	// pos+1). In a real deployment each server holds only its own entry;
	// the in-process deployment holds all of them, but the mixing code
	// only ever hands member pos its own share.
	Keys []*dvss.GroupKey
	// PK is the group public key users and prior groups encrypt to.
	PK *ecc.Point
	// failed marks member positions that have crashed (§4.5).
	failed map[int]bool

	// threshold is k−(h−1): how many members participate per step.
	threshold int
}

// newGroupState runs the group's DVSS and initializes bookkeeping.
func newGroupState(info *groupmgr.Group, threshold int, rnd io.Reader) (*GroupState, error) {
	keys, err := dvss.RunDKG(len(info.Members), threshold, rnd)
	if err != nil {
		return nil, fmt.Errorf("protocol: group %d DKG: %w", info.ID, err)
	}
	// The group key is the base of every rerandomization this group's
	// batches undergo; precompute its comb once at setup.
	ecc.WarmBase(keys[0].PK)
	return &GroupState{
		Info:      info,
		Keys:      keys,
		PK:        keys[0].PK,
		failed:    make(map[int]bool),
		threshold: threshold,
	}, nil
}

// Active returns the 1-based DVSS indices of the members that execute
// the current step: the first `threshold` live members in group order.
// It fails when more than h−1 members are down, which is the trigger for
// buddy-group recovery (§4.5).
func (g *GroupState) Active() ([]int, error) {
	active := make([]int, 0, g.threshold)
	for pos := range g.Info.Members {
		if g.failed[pos] {
			continue
		}
		active = append(active, pos+1)
		if len(active) == g.threshold {
			return active, nil
		}
	}
	return nil, fmt.Errorf("%w: group %d has only %d live members, needs %d",
		ErrRecoveryNeeded, g.Info.ID, len(active), g.threshold)
}

// LiveMembers returns the count of non-failed members.
func (g *GroupState) LiveMembers() int {
	n := 0
	for pos := range g.Info.Members {
		if !g.failed[pos] {
			n++
		}
	}
	return n
}

// StepTrace captures what one group did in one mixing iteration so the
// deployment can account for it (and tests can assert on it). The
// Collector builds it from the group's layer report on either link.
type StepTrace struct {
	GID           int
	Layer         int
	Shuffles      int
	ReEncs        int
	ProofsChecked int
	// Members is the group's live membership when the layer ran (k when
	// healthy; smaller after crashes). The mixing chain always uses
	// exactly threshold members, so a shrinking Members is the
	// degraded-mode signal: the group's h−1 spare budget is being
	// consumed.
	Members int
	// Workers is the worker-pool size the group's iteration ran with;
	// Busy totals the time its workers spent inside crypto tasks (the
	// utilization numerator against wall × Workers).
	Workers int
	Busy    time.Duration
	// Codec totals the time the group's members spent encoding and
	// decoding the layer's chain messages — seat time outside the
	// worker pool, so Busy alone under-reports a distributed member.
	// Zero on the in-process link, which never encodes.
	Codec time.Duration
}

// roster exports the group's chain material for the current active
// set (see GroupRoster).
func (g *GroupState) roster() (*GroupRoster, error) {
	active, err := g.Active()
	if err != nil {
		return nil, err
	}
	r := &GroupRoster{
		GID:     g.Info.ID,
		PK:      g.PK,
		Indices: active,
		Secrets: make([]*ecc.Scalar, len(active)),
		EffPubs: make([]*ecc.Point, len(active)),
	}
	for i, idx := range active {
		eff, effPub, err := g.Keys[idx-1].EffectiveKey(active)
		if err != nil {
			return nil, fmt.Errorf("protocol: group %d member %d key: %w", g.Info.ID, idx, err)
		}
		r.Secrets[i] = eff
		r.EffPubs[i] = effPub
	}
	return r, nil
}
