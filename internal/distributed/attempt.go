package distributed

import (
	"context"
	"errors"
	"fmt"
	"time"

	"atom/internal/protocol"
	"atom/internal/transport"
)

// wireRound tags a round attempt on the wire: churn restarts of one
// round must not collide with the canceled attempt's in-flight traffic,
// so the attempt counter rides in the low byte of the message round id.
func wireRound(round uint64, attempt int) uint64 {
	return round<<8 | uint64(attempt&0xff)
}

// errReplanned restarts a round attempt whose wiring snapshot went stale
// because another round's loss handling re-planned the fleet.
var errReplanned = errors.New("distributed: fleet re-planned mid-attempt")

// errRejoined restarts a round attempt after a silent durable member
// came back (awaitRejoin) with its state intact: the fleet is
// unchanged — no re-plan, no budget burned — but the restarted process
// lost its per-round actor state, so the attempt must replay from its
// sealed batches.
var errRejoined = errors.New("distributed: member rejoined with state intact")

// MixRound implements protocol.Mixer: inject the sealed batches at
// every group's first member, collect per-layer reports, exit outputs
// and aborts — and, when a member is lost mid-round, re-plan the
// affected chains over the surviving members and restart the round from
// its sealed batches (§4.5 availability). A group that cannot be
// re-planned within its h−1 budget fails the round with a typed
// protocol.Loss matching both ErrMemberLost and ErrRecoveryNeeded.
//
// Concurrent calls mix concurrently (§4.7 cross-round pipelining: round
// r+1's layer-0 batches enter the actors while round r traverses later
// layers, because each actor interleaves rounds message by message) —
// as many as the caller drives, up to protocol.MaxPipelinedRounds. Each
// call owns its per-round inbox and attempt counter, and a churn re-plan
// triggered by any round restarts every in-flight round from its own
// sealed batches, so a loss during round r never corrupts round r+1.
func (c *Cluster) MixRound(job *protocol.MixJob) (*protocol.MixOutcome, error) {
	G := c.topo.Groups()
	if len(job.Batches) != G {
		return nil, fmt.Errorf("distributed: %d batches for %d groups", len(job.Batches), G)
	}
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-job.Ctx.Done():
		return nil, fmt.Errorf("distributed: round %d canceled awaiting a pipeline slot: %w", job.Round, job.Ctx.Err())
	}
	inbox, err := c.registerRound(job.Round)
	if err != nil {
		return nil, err
	}
	defer c.unregisterRound(job.Round)

	roundTimer := time.NewTimer(roundTimeout)
	defer roundTimer.Stop()

	for attempt := 0; ; attempt++ {
		out, lost, err := c.attemptRound(job, inbox, attempt, roundTimer)
		switch {
		case errors.Is(err, errReplanned), errors.Is(err, errRejoined):
			// Nothing for this round to re-plan: another round's loss
			// handling already re-wired the fleet, or a silent member came
			// back with its persisted state intact (same fleet, same keys,
			// no budget burned). Replay the attempt from the sealed batches.
			if attempt+1 > maxRestarts {
				return nil, &protocol.Loss{GID: -1, Member: -1, Err: fmt.Errorf(
					"%w: round %d exceeded %d churn restarts", protocol.ErrMemberLost, job.Round, maxRestarts)}
			}
			c.logf("distributed: round %d: restarting (attempt %d): %v", job.Round, attempt+1, err)
			continue
		case err != nil || out != nil:
			return out, err
		}
		// One or more members were lost. Re-plan the chains over the
		// survivors (once, no matter how many rounds observed the loss)
		// and restart the round from its sealed batches.
		if rerr := c.replan(job.Ctx, job.Round, lost, attempt); rerr != nil {
			return nil, rerr
		}
		if attempt+1 > maxRestarts {
			first := lost[0]
			return nil, &protocol.Loss{GID: first.GID, Member: first.Pos + 1, Err: fmt.Errorf(
				"%w: round %d exceeded %d churn restarts", protocol.ErrMemberLost, job.Round, maxRestarts)}
		}
		c.logf("distributed: round %d: re-planned, restarting (attempt %d)", job.Round, attempt+1)
	}
}

// attemptRound runs one attempt of a round over the current chains. It
// returns exactly one of: a completed outcome, a list of lost members
// (the caller re-plans and restarts), an errReplanned (another round
// re-planned the fleet; the caller restarts against the new wiring), or
// a terminal error.
func (c *Cluster) attemptRound(job *protocol.MixJob, inbox chan *transport.Message, attempt int, roundTimer *time.Timer) (*protocol.MixOutcome, []MemberID, error) {
	ctx := job.Ctx
	G := c.topo.Groups()
	T := c.topo.Iterations()
	wire := wireRound(job.Round, attempt)
	began := time.Now() // restart announcements after this invalidate the attempt
	// Snapshot the wiring and the epoch signal together: if a re-plan
	// lands between them the stale epochCh is already closed and the
	// attempt restarts immediately instead of mixing over dead wiring.
	c.epochMu.Lock()
	epochStale := c.epochCh
	v := c.view()
	c.epochMu.Unlock()

	if a := job.Adversary; a != nil {
		c.mu.Lock()
		var actor *Actor
		if a.GID >= 0 && a.GID < len(v.chains) && a.Member >= 0 && a.Member < len(v.chains[a.GID]) {
			actor = c.actors[MemberID{GID: a.GID, Pos: v.chains[a.GID][a.Member]}]
		}
		c.mu.Unlock()
		if actor == nil {
			return nil, nil, fmt.Errorf("distributed: adversary targets group %d member %d, which is not hosted locally", a.GID, a.Member)
		}
		actor.SetTamper(wire, a.Layer, a.Tamper)
		defer actor.SetTamper(0, 0, nil)
	}

	// The round's resolved worker knob (a per-round SetMixConfig
	// override included) rides the batch messages to every actor.
	workers := job.Workers
	if workers < 1 {
		workers = c.opts.Workers
	}
	for gid := 0; gid < G; gid++ {
		if err := c.coord.SendCtx(ctx, v.entry[gid], &transport.Message{
			Type: msgBatch, Round: wire,
			Payload: encodeBatchMsg(0, -1, workers, job.Batches[gid]),
		}); err != nil {
			c.cancelRound(wire)
			if transport.Unreachable(err) {
				return nil, []MemberID{{GID: gid, Pos: v.chains[gid][0]}}, nil
			}
			return nil, nil, fmt.Errorf("distributed: injecting group %d batch: %w", gid, err)
		}
	}

	// Iteration durations are coordinator-observed: from the previous
	// layer's completion to this one's, which includes real (or modeled)
	// network latency between the groups.
	col := c.d.NewCollector(job, workers)
	var liveTick <-chan time.Time
	if c.opts.Heartbeat > 0 {
		t := time.NewTicker(c.opts.Heartbeat)
		defer t.Stop()
		liveTick = t.C
	}

	for !col.Done() {
		select {
		case msg, okc := <-inbox:
			if !okc {
				return nil, nil, fmt.Errorf("distributed: coordinator endpoint closed mid-round")
			}
			if msg.Round != wire {
				continue // stray from a canceled attempt or previous round
			}
			if _, member := v.member[msg.From]; !member {
				continue // only member actors report; ignore strangers
			}
			switch msg.Type {
			case msgLayer:
				gid, layer, w, err := decodeLayerMsg(msg.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("distributed: bad layer report: %w", err)
				}
				if layer < 0 || layer >= T || gid < 0 || gid >= G {
					return nil, nil, fmt.Errorf("distributed: layer report out of range (group %d, layer %d)", gid, layer)
				}
				if msg.From != v.entry[gid] {
					continue // only group gid's first member reports its layers
				}
				col.Layer(gid, layer, w)
			case msgOut:
				gid, vecs, err := decodeOutMsg(msg.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("distributed: bad exit output: %w", err)
				}
				if gid < 0 || gid >= G {
					return nil, nil, fmt.Errorf("distributed: exit output from out-of-range group %d", gid)
				}
				if msg.From != v.entry[gid] {
					continue // only group gid's first member publishes its exit
				}
				col.Exit(gid, vecs)
			case msgAbort:
				layer, gid, member, class, text, err := decodeAbortMsg(msg.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("distributed: bad abort report: %v", err)
				}
				reporter := v.member[msg.From]
				if class == abortPeer {
					// A failed chain delivery: the reporter names the
					// member it could not reach (−1 = that group's first
					// member). Accepting the report burns at most one
					// spare — the same availability power a malicious
					// member already has by stalling the round.
					if gid < 0 || gid >= G {
						continue
					}
					lostPos := member - 1
					if member < 0 {
						lostPos = v.chains[gid][0]
					}
					lost := MemberID{GID: gid, Pos: lostPos}
					if !v.inChain(lost) {
						continue // already re-planned away, or fabricated
					}
					c.logf("distributed: round %d: g%d/m%d reports %s", job.Round, reporter.GID, reporter.Pos, text)
					c.cancelRound(wire)
					// The unreachable member may be mid-restart with its
					// state intact: grant the grace before burning budget.
					if c.awaitRejoin(ctx, []MemberID{lost}) {
						return nil, nil, errRejoined
					}
					return nil, []MemberID{lost}, nil
				}
				if class == abortProof && member < 0 {
					// A bad batch: a first member names the group that
					// feeds it at this layer and leaves that group's first
					// member (−1) for us to resolve — the one blame that may
					// cross a group boundary. A claim the wiring cannot
					// back still aborts the reporter's own round, blaming
					// no one.
					if gid >= 0 && gid < G && msg.From == v.entry[reporter.GID] && c.feeds(gid, reporter.GID, layer) {
						member = v.chains[gid][0] + 1
					} else {
						class, gid = abortInternal, reporter.GID
					}
				} else if reporter.GID != gid {
					continue // otherwise a member may only report (and blame) its own group
				}
				c.cancelRound(wire)
				return nil, nil, classifyAbort(layer, gid, member, class, text)
			}
		case <-epochStale:
			// Another round's loss handling re-planned the fleet; this
			// attempt's chains, entry table and actor configs are stale.
			c.cancelRound(wire)
			return nil, nil, errReplanned
		case <-liveTick:
			// A member that crash-restarted after this attempt began is
			// alive and heartbeating — but the attempt's mixing state died
			// with its old process, so the attempt can only stall. Replay
			// it over the unchanged fleet (the same errRejoined path a
			// detected-then-rejoined silence takes).
			if ids := c.restartedSince(began, v); len(ids) > 0 {
				c.cancelRound(wire)
				for _, id := range ids {
					c.logf("distributed: round %d: g%d/m%d restarted mid-attempt with state intact; replaying the attempt", job.Round, id.GID, id.Pos)
				}
				c.rejoins.Add(uint64(len(ids)))
				return nil, nil, errRejoined
			}
			var lost []MemberID
			for _, id := range c.live.expired(c.opts.LivenessTimeout) {
				if v.inChain(id) {
					lost = append(lost, id)
				}
			}
			if len(lost) > 0 {
				c.cancelRound(wire)
				// "Restarting, state intact" vs "lost": a crashed member
				// restarted from its -state-dir resumes heartbeating
				// under its old identity within the grace, and the round
				// replays over the unchanged fleet; only members that
				// stay silent past it go down the re-plan path.
				if c.awaitRejoin(ctx, lost) {
					return nil, nil, errRejoined
				}
				return nil, lost, nil
			}
		case <-ctx.Done():
			c.cancelRound(wire)
			return nil, nil, fmt.Errorf("distributed: round %d canceled: %w", job.Round, ctx.Err())
		case <-roundTimer.C:
			c.cancelRound(wire)
			return nil, nil, &TimeoutError{
				Round: job.Round, After: roundTimeout, Progress: progressList(c.live.snapshot()),
			}
		}
	}

	out, err := col.Outcome()
	return out, nil, err
}

// feeds reports whether group src forwards a batch to group dst at the
// start of the given layer.
func (c *Cluster) feeds(src, dst, layer int) bool {
	if layer < 1 || layer >= c.topo.Iterations() {
		return false
	}
	for _, s := range c.topo.Sources(layer, dst) {
		if s == src {
			return true
		}
	}
	return false
}

// cancelRound tells every actor to drop the round attempt's state and
// traffic.
func (c *Cluster) cancelRound(wire uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	for _, addr := range c.Addresses() {
		_ = c.coord.SendCtx(ctx, addr, &transport.Message{Type: msgCancel, Round: wire})
	}
}

// classifyAbort maps a wire abort back onto the protocol error
// taxonomy, so errors.Is / errors.As behave identically whether the
// round ran in-process, over memnet, or over TCP.
func classifyAbort(layer, gid, member int, class, text string) error {
	switch class {
	case abortProof:
		err := &remoteErr{sentinel: protocol.ErrProofRejected, msg: text}
		if member >= 0 {
			return &protocol.Blame{GID: gid, Member: member, Err: err}
		}
		return err
	case abortCanceled:
		return &remoteErr{sentinel: context.Canceled, msg: text}
	default:
		return fmt.Errorf("distributed: group %d member %d aborted at layer %d: %s", gid, member, layer, text)
	}
}

// remoteErr reconstitutes a typed error from its wire form: the
// original message text with the matching sentinel re-attached for
// errors.Is.
type remoteErr struct {
	sentinel error
	msg      string
}

func (e *remoteErr) Error() string { return e.msg }

func (e *remoteErr) Unwrap() error { return e.sentinel }
