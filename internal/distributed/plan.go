package distributed

import (
	"context"
	"fmt"
	"time"

	"atom/internal/ecc"
	"atom/internal/protocol"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// attachFresh attaches a local endpoint, retrying with a suffixed name
// if a previous incarnation of the node still holds it (an in-memory
// network frees a name only when the endpoint closes).
func (c *Cluster) attachFresh(name string) (transport.Endpoint, error) {
	ep, err := c.opts.Attach(name)
	for retry := 2; err != nil && retry <= 4; retry++ {
		ep, err = c.opts.Attach(fmt.Sprintf("%s~%d", name, retry))
	}
	return ep, err
}

// provision synchronizes the actor fleet with the deployment's current
// active sets: it computes every group's chain from its roster, starts
// an unconfigured local host for each newly activated member that has no
// remote one (spares entering a chain, recovered replacements), and
// sends every chain member — newcomer or survivor, local or remote — its
// config: chain order, entry table and Lagrange-weighted effective
// secret. It returns the members that failed to acknowledge within the
// deadline (so churn during a re-plan feeds back into the loss loop) —
// except on the initial provisioning (fresh), where a missing member is
// fatal.
func (c *Cluster) provision(ctx context.Context, fresh bool) ([]MemberID, error) {
	G := c.topo.Groups()
	cfg := c.d.Config()
	spec := TopoSpec{Name: cfg.Topology, Groups: G, Iterations: cfg.Iterations, Reps: cfg.ButterflyReps}

	rosters := make([]*protocol.GroupRoster, G)
	groupPKs := make([]*ecc.Point, G)
	for gid := 0; gid < G; gid++ {
		r, err := c.d.GroupRoster(gid)
		if err != nil {
			return nil, err
		}
		rosters[gid] = r
		groupPKs[gid] = r.PK
	}

	c.mu.Lock()
	chains := make([][]int, G)
	var fleet []MemberID // every chain member, all groups
	for gid, r := range rosters {
		for _, idx := range r.Indices {
			chains[gid] = append(chains[gid], idx-1)
			fleet = append(fleet, MemberID{GID: gid, Pos: idx - 1})
		}
	}
	// Place members that have no endpoint yet: a pre-started remote host
	// if configured, a fresh local one otherwise — the same unconfigured
	// actor loop either way, so from here on nothing tells them apart.
	for _, id := range fleet {
		if _, have := c.addrs[id]; have {
			continue
		}
		if addr, remote := c.opts.Remote[id]; remote {
			c.addrs[id] = addr
			continue
		}
		ep, err := c.attachFresh(fmt.Sprintf("%s/g%d/m%d", nodePrefix, id.GID, id.Pos))
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		actor := &Actor{ep: ep}
		c.actors[id] = actor
		c.addrs[id] = ep.Addr()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = actor.Serve(c.ctx)
		}()
	}
	c.chains = chains
	for gid := range chains {
		c.entry[gid] = c.addrs[MemberID{GID: gid, Pos: chains[gid][0]}]
	}
	c.memberOf = make(map[string]MemberID, len(c.addrs))
	for id, addr := range c.addrs {
		c.memberOf[addr] = id
	}
	entry := append([]string(nil), c.entry...)
	c.mu.Unlock()
	addrs := c.Addresses() // stable: only provisioning passes edit the book

	// Build each chain member's config and deliver it. Every config is
	// acknowledged — the round (re)start must not outrun a member still
	// holding stale wiring. First drain stale acks from a previous pass
	// (passes are serialized, so this is the channel's only receiver).
	for len(c.ackCh) > 0 {
		<-c.ackCh
	}
	await := make(map[MemberID]bool)
	for _, id := range fleet {
		r := rosters[id.GID]
		chain := chains[id.GID]
		pos := -1
		peers := make([]string, len(chain))
		for i, mpos := range chain {
			peers[i] = addrs[MemberID{GID: id.GID, Pos: mpos}]
			if mpos == id.Pos {
				pos = i
			}
		}
		mcfg := MemberConfig{
			GID:         id.GID,
			Pos:         pos,
			Indices:     r.Indices,
			Secret:      r.Secrets[pos],
			EffPubs:     r.EffPubs,
			GroupPK:     r.PK,
			GroupPKs:    groupPKs,
			Peers:       peers,
			Entry:       entry,
			Coordinator: c.coord.Addr(),
			Variant:     cfg.Variant,
			Workers:     c.opts.Workers,
			Topo:        spec,
			Heartbeat:   c.opts.Heartbeat,
			Escrows:     c.d.EscrowPieces(id.GID, id.Pos+1),
			ConfigHash:  c.opts.ConfigHash,
		}
		if err := c.coord.SendCtx(ctx, addrs[id], &transport.Message{
			Type: msgConfig, Payload: mcfg.Marshal(),
		}); err != nil {
			// A dead member (or spare) during a re-plan is one more loss
			// for the loop to absorb, not a terminal error — the group may
			// have further spares in its budget.
			if !fresh && transport.Unreachable(err) {
				return []MemberID{id}, nil
			}
			return nil, fmt.Errorf("distributed: configuring %v at %s: %w", id, addrs[id], err)
		}
		await[id] = true
	}

	ackBudget := controlTimeout
	if fresh {
		ackBudget = joinTimeout
	}
	deadline := time.After(ackBudget)
	for len(await) > 0 {
		select {
		case ack := <-c.ackCh:
			// Only a member we actually contacted may acknowledge (the
			// pump has already dropped strangers and rejoin greetings).
			id := ack.id
			if !await[id] {
				continue // not asked in this pass
			}
			if ack.code == ackAccepted {
				delete(await, id)
				c.mu.Lock()
				c.durable[id] = ack.durable
				c.mu.Unlock()
				c.live.reset(id, time.Now())
				continue
			}
			refusal := fmt.Errorf("member g%d/m%d at %s refused its config: %v", id.GID, id.Pos, addrs[id], ack.code)
			if ack.code == ackHashMismatch {
				// Not churn: the fleet disagrees on its group config.
				// Retrying cannot help.
				return nil, fmt.Errorf("%w: %v", taxonomy.ErrConfigMismatch, refusal)
			}
			if fresh {
				return nil, fmt.Errorf("distributed: %v", refusal)
			}
			c.logf("distributed: %v", refusal)
			return []MemberID{id}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline:
			if fresh {
				return nil, fmt.Errorf("distributed: %d members did not join within %v", len(await), ackBudget)
			}
			var lost []MemberID
			for id := range await {
				lost = append(lost, id)
			}
			return lost, nil
		}
	}
	return nil, nil
}

// attemptView is the provisioning snapshot one round attempt runs
// against; a re-plan between attempts produces a new one.
type attemptView struct {
	chains [][]int
	entry  []string
	member map[string]MemberID
}

func (c *Cluster) view() *attemptView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := &attemptView{
		chains: c.chains, // replaced whole by each pass, never edited in place
		entry:  append([]string(nil), c.entry...),
		member: make(map[string]MemberID, len(c.memberOf)),
	}
	for addr, id := range c.memberOf {
		v.member[addr] = id
	}
	return v
}

// inChain reports whether id is in its group's current chain.
func (v *attemptView) inChain(id MemberID) bool {
	if id.GID < 0 || id.GID >= len(v.chains) {
		return false
	}
	for _, pos := range v.chains[id.GID] {
		if pos == id.Pos {
			return true
		}
	}
	return false
}

// replan handles a round's observed member losses: under the epoch lock
// it fails the members that are still provisioned, re-chains every
// affected group over the survivors, re-configures the fleet, and bumps
// the epoch so every other in-flight round restarts too. Losses already
// handled by a concurrent round's re-plan are skipped — the caller just
// restarts against the current plan.
func (c *Cluster) replan(ctx context.Context, round uint64, lost []MemberID, attempt int) error {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()

	// A concurrent re-plan may already have removed these members.
	pending := lost[:0:0]
	c.mu.Lock()
	for _, id := range lost {
		if _, known := c.addrs[id]; known {
			pending = append(pending, id)
		}
	}
	c.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	first := pending[0]
	for _, id := range pending {
		c.logf("distributed: round %d: member g%d/m%d lost (attempt %d); re-planning", round, id.GID, id.Pos, attempt)
		c.d.FailGroupMember(id.GID, id.Pos)
		c.removeMember(id)
	}
	if perr := c.settle(ctx); perr != nil {
		// A caller cancellation that lands during the re-plan is still a
		// cancellation — it must never dress up as a member loss.
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w: round %d canceled during re-plan: %w", taxonomy.ErrRoundAborted, round, cerr)
		}
		return &taxonomy.Loss{GID: first.GID, Member: first.Pos + 1, Err: fmt.Errorf(
			"%w: round %d: group %d lost member %d: %w",
			taxonomy.ErrMemberLost, round, first.GID, first.Pos+1, perr)}
	}
	c.replans.Add(1)
	c.bumpEpoch()
	return nil
}

// settle re-provisions until every chain member has acknowledged its
// config, failing the members that do not: churn during a re-plan feeds
// back into the plan. Callers hold epochMu.
func (c *Cluster) settle(ctx context.Context) error {
	for budget := 0; ; budget++ {
		lost, err := c.provision(ctx, false)
		if err != nil || len(lost) == 0 {
			return err
		}
		if budget >= maxRestarts {
			return fmt.Errorf("%w: %d members still unresponsive after %d re-plans", taxonomy.ErrMemberLost, len(lost), budget)
		}
		for _, id := range lost {
			c.logf("distributed: member g%d/m%d unresponsive during re-plan", id.GID, id.Pos)
			c.d.FailGroupMember(id.GID, id.Pos)
			c.removeMember(id)
		}
	}
}

// bumpEpoch tells every in-flight attempt that the fleet was re-wired
// and its snapshot is stale. Callers hold epochMu.
func (c *Cluster) bumpEpoch() {
	close(c.epochCh)
	c.epochCh = make(chan struct{})
}

// removeMember forgets a lost member: its local actor (if any) is torn
// down and its address unlearned, so nothing further is routed to or
// accepted from it.
func (c *Cluster) removeMember(id MemberID) {
	c.KillMember(id)
	c.mu.Lock()
	if addr, ok := c.addrs[id]; ok {
		delete(c.addrs, id)
		delete(c.memberOf, addr)
	}
	delete(c.durable, id)
	delete(c.restarts, id)
	c.mu.Unlock()
	c.live.forget(id)
}
