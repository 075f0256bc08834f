package protocol

import (
	"context"
	"fmt"
	"io"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/groupmgr"
	"atom/internal/parallel"
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
// deployment can account for it (and tests can assert on it). It is
// exported because the distributed mixer (internal/distributed)
// assembles the same records from the actors' per-chain accounting.
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
	// decoding the layer's chain messages — actor time outside the
	// worker pool, so Busy alone under-reports a distributed member.
	// Zero on the in-process mixer, which has no hops.
	Codec time.Duration
}

// mixParams bundles what a group needs to execute one iteration.
type mixParams struct {
	// ctx aborts the iteration between members when canceled.
	ctx context.Context
	// batch is the group's working set for this iteration (per-round
	// state; the deployment threads it through from the RoundState).
	batch   []elgamal.Vector
	layer   int
	variant Variant
	// destinations are the next-layer group ids (empty for the exit
	// layer) and their public keys (nil entries mean ⊥).
	destGIDs []int
	destPKs  []*ecc.Point
	rnd      io.Reader
	// tamper, when non-nil, injects a malicious server: after the member
	// at position tamperMember (0-based within the active subset)
	// shuffles, the hook may replace that member's output batch. In the
	// NIZK variant the member's shuffle proof then fails verification and
	// the group aborts (Algorithm 2); in the trap variant the corruption
	// flows on and is caught by trap accounting (§4.4).
	tamper       func(batch []elgamal.Vector) []elgamal.Vector
	tamperMember int
	// workers bounds the group's crypto worker pool (MixConfig, already
	// resolved by the deployment; < 1 means serial).
	workers int
}

// runIteration executes Algorithm 1 (or Algorithm 2 when variant is
// VariantNIZK) for this group: shuffle by every active member in order,
// divide into β batches, and decrypt-and-reencrypt by every active
// member in order. It returns the β output batches aligned with
// destGIDs.
//
// Every cryptographic step — shuffle, proof, re-encryption,
// verification — is the shared MemberEngine, the same code the
// distributed actor path executes per member over a transport; this
// function merely plays all members of the group in one process. The
// per-message cryptography fans over a parallel.Pool of p.workers
// goroutines (MixConfig; Figure 7's multi-core scaling). Member chains
// stay serial — member m+1 consumes member m's output — but within a
// member's step the batch parallelizes.
//
// In the NIZK variant every shuffle and reencryption is accompanied by
// a proof (standing in for "all servers in the group verify the proof
// and report the result"). Shuffle-proof verification is deferred to
// the end of the member chain and runs for all members concurrently;
// like the immediate check it happens before any ciphertext leaves the
// group, so a failure aborts the round exactly as Algorithm 2
// prescribes, and the pool's first-error semantics guarantee the
// rejection is never swallowed.
func (g *GroupState) runIteration(p mixParams) ([][]elgamal.Vector, *StepTrace, error) {
	active, err := g.Active()
	if err != nil {
		return nil, nil, err
	}
	workers := p.workers
	if workers < 1 {
		workers = 1
	}
	trace := &StepTrace{GID: g.Info.ID, Layer: p.layer, Workers: workers, Members: g.LiveMembers()}

	// --- Step 1: Shuffle, each active member in order. ---
	// An empty batch (a group that received no ciphertexts this layer)
	// passes through: there is nothing to permute or prove.
	batch := p.batch
	if len(batch) == 0 {
		beta := len(p.destGIDs)
		if beta == 0 {
			beta = 1
		}
		return make([][]elgamal.Vector, beta), trace, nil
	}
	pool := parallel.New(p.ctx, workers)
	engine := &MemberEngine{GID: g.Info.ID, Variant: p.variant, GroupPK: g.PK, Pool: pool}

	// Keep every member's step so all proofs can be verified
	// concurrently after the chain.
	var steps []*ShuffleStep
	for pos, idx := range active {
		if err := p.canceled(); err != nil {
			return nil, nil, err
		}
		out, perm, rands, err := engine.Shuffle(idx, batch, p.rnd)
		if err != nil {
			return nil, nil, err
		}
		trace.Shuffles++
		if p.tamper != nil && pos == p.tamperMember {
			if evil := p.tamper(out); evil != nil {
				out = evil
			}
		}
		step, err := engine.ProveStep(idx, batch, out, perm, rands, p.rnd)
		if err != nil {
			return nil, nil, err
		}
		if step.Proof != nil {
			steps = append(steps, step)
		}
		batch = out
	}
	if len(steps) > 0 {
		// Generation is a serial chain, but once the intermediate batches
		// exist each member's proof verifies independently.
		if len(steps) >= workers {
			// One proof per worker keeps the pool saturated.
			err = pool.Each(len(steps), func(si int) error { return engine.VerifyShuffle(steps[si], nil) })
		} else {
			// Fewer proofs than workers: verify in order, each proof
			// fanning its inner loops over the pool instead.
			for si := 0; si < len(steps) && err == nil; si++ {
				err = engine.VerifyShuffle(steps[si], pool)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		trace.ProofsChecked += len(steps)
	}

	// --- Step 2: Divide into β batches (exactly as the topology
	// declares the split). ---
	beta := len(p.destGIDs)
	if beta == 0 {
		// Exit layer: one batch, decrypted to plaintext (pk = ⊥).
		beta = 1
		p.destGIDs = []int{-1}
		p.destPKs = []*ecc.Point{nil}
	}
	batches := Divide(batch, beta)

	// --- Step 3: Decrypt and reencrypt, each active member in order. ---
	for i := range batches {
		cur := batches[i]
		if len(cur) == 0 {
			continue
		}
		for _, idx := range active {
			if err := p.canceled(); err != nil {
				return nil, nil, err
			}
			gk := g.Keys[idx-1]
			eff, effPub, err := gk.EffectiveKey(active)
			if err != nil {
				return nil, nil, fmt.Errorf("protocol: group %d member %d key: %w", g.Info.ID, idx, err)
			}
			step, err := engine.ReEnc(idx, eff, effPub, p.destPKs[i], cur, p.rnd)
			if err != nil {
				return nil, nil, err
			}
			trace.ReEncs += len(cur)
			if p.variant == VariantNIZK {
				if err := engine.VerifyReEnc(step); err != nil {
					return nil, nil, err
				}
				trace.ProofsChecked += len(cur)
			}
			cur = step.Out
		}
		// Last server clears the Y slot before forwarding (Appendix A).
		batches[i] = ClearYBatch(cur)
	}
	trace.Busy = pool.Busy()
	return batches, trace, nil
}

// canceled reports the context's error, if any.
func (p *mixParams) canceled() error {
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("protocol: mixing canceled: %w", err)
		}
	}
	return nil
}
