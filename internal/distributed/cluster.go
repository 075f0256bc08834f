package distributed

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/topology"
	"atom/internal/transport"
)

// MemberID addresses one member: group id and the member's position
// within the group roster (its DVSS index − 1). The identity is stable
// across churn — a member keeps its MemberID whether it is currently in
// the group's active mixing chain or standing by as one of the h−1
// spares.
type MemberID struct {
	GID, Pos int
}

// AttachFunc provides an endpoint for a named node — how the cluster
// places its locally hosted actors (and its coordinator) on a
// transport.
type AttachFunc func(name string) (transport.Endpoint, error)

// MemAttach hosts actors on an in-memory network (optionally
// latency-modeled — the §6 emulated WAN).
func MemAttach(n *transport.MemNetwork) AttachFunc { return n.Attach }

// TCPAttach hosts each actor on its own TCP endpoint bound to an
// ephemeral port on host (e.g. "127.0.0.1" for a loopback deployment).
// The node name only labels logs; the address book uses the bound
// host:port.
func TCPAttach(host string) AttachFunc {
	return func(name string) (transport.Endpoint, error) {
		return transport.ListenTCP(host+":0", 4096)
	}
}

// Options tunes a Cluster.
type Options struct {
	// Prefix namespaces the cluster's node names (default "atom").
	Prefix string
	// Attach places locally hosted actors and the coordinator.
	Attach AttachFunc
	// Remote maps members to pre-started HostMember endpoints (e.g.
	// atomd -member processes); the cluster ships each its MemberConfig
	// over the transport instead of hosting it locally.
	Remote map[MemberID]string
	// Workers bounds each actor's crypto pool. Zero selects CPUs/G —
	// locally hosted groups share this machine, like MixConfig.
	Workers int
	// RoundTimeout bounds one round's mixing (default 5m) in addition
	// to the caller's context. It spans churn restarts: a round that
	// keeps losing members does not get a fresh budget per restart.
	RoundTimeout time.Duration
	// JoinTimeout bounds each remote member's setup (default 30s).
	JoinTimeout time.Duration
	// Heartbeat is the members' liveness-beacon period (default 500ms;
	// negative disables heartbeats, leaving failed-delivery reports as
	// the only churn detector).
	Heartbeat time.Duration
	// LivenessTimeout is how long a member may stay silent before the
	// coordinator declares it lost (default 4×Heartbeat). Keep it a
	// few beacon periods wide: heartbeats ride the same links as
	// batches, so a too-tight bound turns WAN jitter into churn.
	LivenessTimeout time.Duration
	// ControlTimeout bounds the cluster's control-plane traffic —
	// cancel fan-outs, stop notifications, reconfiguration acks and
	// escrow solicitation (default 2s).
	ControlTimeout time.Duration
	// MaxRestarts caps how many times one round may re-plan and restart
	// after member losses before giving up (default 8).
	MaxRestarts int
	// MaxInFlight bounds how many rounds may mix over the cluster
	// concurrently — the §4.7 cross-round pipelining: round r+1's
	// layer-0 batches enter the actors while round r traverses later
	// layers, because each actor interleaves rounds message by message.
	// Default 1 (lock-step); capped at maxPipelinedRounds so a live
	// round's actor state can never age out of the members' pruning
	// window. A churn re-plan aborts and restarts every in-flight round
	// from its sealed batches, so a loss during round r never corrupts
	// round r+1.
	MaxInFlight int
	// RestartGrace, when positive, separates "restarting, state
	// intact" from "lost": a member that goes silent (or unreachable)
	// mid-round gets this long to come back — a crash-restarted atomd
	// replaying its -state-dir resumes heartbeating under its old
	// identity at its old address — before the coordinator burns h−1
	// budget on a re-plan. A member that returns within the grace
	// restarts the round attempt with the fleet unchanged: no re-plan,
	// no buddy recovery, no key material spent. Zero (the default)
	// disables the grace and keeps the PR 4 behavior: every silence is
	// a loss. Requires heartbeats — a rejoin is only observable as the
	// restarted member's resumed beacon.
	RestartGrace time.Duration
	// ConfigHash is the canonical group-config hash
	// (store.GroupConfig.Hash) stamped into every member's provisioning
	// config. Hosts started with their own hash (atomd -config) refuse
	// joins carrying a different one, and the cluster treats such a
	// refusal as a terminal protocol.ErrConfigMismatch, not churn.
	ConfigHash []byte
	// Log, when non-nil, receives operator-grade churn events
	// (detections, re-plans, recoveries). Printf-shaped.
	Log func(format string, args ...any)
}

// ClusterStats counts the cluster's churn-handling activity since
// construction — the observability surface fault-injection tests assert
// against: a crash-restart with state intact must show up as a rejoin
// with zero re-plans and zero recoveries.
type ClusterStats struct {
	// Rejoins counts members re-admitted within Options.RestartGrace
	// after a silence — restarts with state intact.
	Rejoins uint64
	// Replans counts fleet re-plans: losses that burned h−1 budget and
	// re-chained groups over survivors.
	Replans uint64
	// Recoveries counts completed §4.5 buddy-group share recoveries.
	Recoveries uint64
	// SharesSolicited counts lost shares reconstructed from buddy
	// escrow pieces over the wire.
	SharesSolicited uint64
}

// localActor is one locally hosted member: its actor loop, endpoint,
// and the cancel that tears only this member down.
type localActor struct {
	actor  *Actor
	ep     transport.Endpoint
	cancel context.CancelFunc
}

// memberProgress is the liveness tracker's per-member record: when the
// member was last heard from and where it said it was.
type memberProgress struct {
	Seen  time.Time
	Round uint64 // wire round (round<<8 | attempt)
	Layer int
	Phase string
}

// liveness tracks the last heartbeat (and self-reported progress) of
// every provisioned member. The pump goroutine writes it; the mixing
// loop and operators read it.
type liveness struct {
	mu sync.Mutex
	m  map[MemberID]memberProgress
}

func newLiveness() *liveness { return &liveness{m: make(map[MemberID]memberProgress)} }

func (l *liveness) reset(id MemberID, now time.Time) {
	l.mu.Lock()
	l.m[id] = memberProgress{Seen: now, Phase: "provisioned"}
	l.mu.Unlock()
}

func (l *liveness) observe(id MemberID, round uint64, layer int, phase string) {
	l.mu.Lock()
	l.m[id] = memberProgress{Seen: time.Now(), Round: round, Layer: layer, Phase: phase}
	l.mu.Unlock()
}

func (l *liveness) forget(id MemberID) {
	l.mu.Lock()
	delete(l.m, id)
	l.mu.Unlock()
}

// expired returns the members silent for longer than timeout.
func (l *liveness) expired(timeout time.Duration) []MemberID {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []MemberID
	for id, p := range l.m {
		if now.Sub(p.Seen) > timeout {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GID != out[j].GID {
			return out[i].GID < out[j].GID
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

func (l *liveness) snapshot() map[MemberID]memberProgress {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[MemberID]memberProgress, len(l.m))
	for id, p := range l.m {
		out[id] = p
	}
	return out
}

// MemberProgress is one member's last-known state, as carried by
// heartbeats — embedded in TimeoutError so a stalled round names where
// every member was instead of timing out anonymously.
type MemberProgress struct {
	ID    MemberID
	Round uint64
	Layer int
	Phase string
	// Age is how long ago the member was last heard from.
	Age time.Duration
}

// TimeoutError is a round that exhausted Options.RoundTimeout. Unlike a
// context cancellation (the caller gave up) or an abort (a member
// reported a failure), a timeout means the round silently stalled — the
// per-member progress identifies the straggler.
type TimeoutError struct {
	Round    uint64
	After    time.Duration
	Progress []MemberProgress
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("distributed: round %d timed out after %v; last known member progress:", e.Round, e.After)
	if len(e.Progress) == 0 {
		s += " (none)"
	}
	for _, p := range e.Progress {
		s += fmt.Sprintf(" g%d/m%d %s L%d (%s ago);", p.ID.GID, p.ID.Pos, p.Phase, p.Layer, p.Age.Round(time.Millisecond))
	}
	return s
}

// Cluster is the distributed round engine: one actor per active group
// member (hosted locally or adopted remotely), a coordinator endpoint
// that injects sealed batches and collects exits, and an implementation
// of protocol.Mixer, so Deployment.MixSealed runs the identical round
// lifecycle — finale, blame records — over it.
//
// The cluster is churn-tolerant end to end: members heartbeat the
// coordinator, a silent or unreachable member is detected within
// Options.LivenessTimeout and reported as a typed protocol.Loss
// (errors.Is(err, protocol.ErrMemberLost)); while the group still has
// spare members within its h−1 budget the coordinator re-plans the
// mixing chain over the survivors and restarts the round from its
// sealed batches, and once a group falls below threshold RecoverGroup
// drives §4.5 buddy-group share recovery over the wire.
type Cluster struct {
	d    *protocol.Deployment
	topo topology.Topology

	coord transport.Endpoint
	opts  Options
	live  *liveness

	// mu guards the provisioning state: which members exist, where they
	// are, and how each group's active chain is ordered.
	mu       sync.Mutex
	actors   map[MemberID]*localActor
	addrs    map[MemberID]string
	memberOf map[string]MemberID
	chains   [][]int  // gid → member positions (0-based), chain order
	entry    []string // gid → first chain member's address
	// restarts records each known member's last crash-restart
	// announcement (the unsolicited rejoin greeting a resumed host
	// sends). A member can restart so fast it never misses a liveness
	// beat — yet its in-flight round state died with the old process, so
	// any attempt older than the announcement would stall forever.
	// attemptRound checks this on every liveness tick.
	restarts map[MemberID]time.Time

	// The pump goroutine owns the coordinator inbox and routes traffic:
	// heartbeats to the liveness tracker, join/reconfig acks to joinCh,
	// escrow pieces to the registered share channel, and round traffic to
	// the per-round channel registered by each in-flight MixRound (keyed
	// by the base round id — the attempt counter in the low wire byte is
	// filtered downstream).
	joinCh       chan *transport.Message
	roundMu      sync.Mutex
	rounds       map[uint64]chan *transport.Message
	roundsClosed bool
	shareMu      sync.Mutex
	shareCh      chan *transport.Message

	// sem bounds the in-flight rounds at Options.MaxInFlight.
	sem chan struct{}

	// epochMu serializes churn re-planning (and all provisioning). Each
	// re-plan — failing the lost members, re-chaining the survivors,
	// reconfiguring every actor — bumps epoch and closes epochCh, telling
	// every in-flight round attempt that its wiring snapshot is stale:
	// the attempt cancels its wire traffic and restarts from its sealed
	// batches against the new plan. That is the cross-round isolation
	// contract: a loss detected by round r restarts r AND r+1, rather
	// than r+1 silently mixing over a half-reconfigured fleet.
	epochMu sync.Mutex
	epoch   uint64
	epochCh chan struct{}

	// Churn-activity counters (Stats).
	rejoins         atomic.Uint64
	replans         atomic.Uint64
	recoveries      atomic.Uint64
	sharesSolicited atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Stats returns the cluster's churn-activity counters.
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		Rejoins:         c.rejoins.Load(),
		Replans:         c.replans.Load(),
		Recoveries:      c.recoveries.Load(),
		SharesSolicited: c.sharesSolicited.Load(),
	}
}

// NewCluster builds the full network of member actors for the
// deployment: it exports each group's active roster (playing the DKG
// ceremony that would otherwise have provisioned each server), attaches
// one endpoint per locally hosted member, ships MemberConfigs to remote
// hosts, and starts the local actor loops and the coordinator pump.
func NewCluster(d *protocol.Deployment, opts Options) (*Cluster, error) {
	if opts.Attach == nil {
		return nil, fmt.Errorf("distributed: Options.Attach is required")
	}
	if opts.Prefix == "" {
		opts.Prefix = "atom"
	}
	if opts.RoundTimeout <= 0 {
		opts.RoundTimeout = 5 * time.Minute
	}
	if opts.JoinTimeout <= 0 {
		opts.JoinTimeout = 30 * time.Second
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.Heartbeat < 0 {
		opts.Heartbeat = 0 // disabled
	}
	if opts.LivenessTimeout <= 0 {
		opts.LivenessTimeout = 4 * opts.Heartbeat
	}
	if opts.ControlTimeout <= 0 {
		opts.ControlTimeout = 2 * time.Second
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 8
	}
	if opts.MaxInFlight < 1 {
		opts.MaxInFlight = 1
	}
	if opts.MaxInFlight > maxPipelinedRounds {
		opts.MaxInFlight = maxPipelinedRounds
	}
	topo := d.Topology()
	G := topo.Groups()
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0) / G
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}

	c := &Cluster{
		d:        d,
		topo:     topo,
		opts:     opts,
		live:     newLiveness(),
		actors:   make(map[MemberID]*localActor),
		addrs:    make(map[MemberID]string),
		memberOf: make(map[string]MemberID),
		chains:   make([][]int, G),
		entry:    make([]string, G),
		restarts: make(map[MemberID]time.Time),
		rounds:   make(map[uint64]chan *transport.Message),
		joinCh:   make(chan *transport.Message, 64),
		sem:      make(chan struct{}, opts.MaxInFlight),
		epochCh:  make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	coord, err := opts.Attach(opts.Prefix + "/coord")
	if err != nil {
		return nil, err
	}
	c.coord = coord
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(1)
	go c.pump()

	if _, err := c.provision(context.Background(), true); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// logf reports an operator event through Options.Log, if installed.
func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

// pump owns the coordinator inbox for the cluster's lifetime, so
// liveness beacons are processed even while no round is mixing. Round
// traffic is routed by base round id to whichever in-flight MixRound
// registered for it; strays from canceled attempts, finished rounds or
// unknown rounds are dropped here or by the wire-round filter
// downstream.
func (c *Cluster) pump() {
	defer c.wg.Done()
	defer c.closeRounds()
	for msg := range c.coord.Inbox() {
		switch msg.Type {
		case msgHeartbeat:
			gid, member, round, layer, phase, err := decodeHeartbeatMsg(msg.Payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			id, known := c.memberOf[msg.From]
			c.mu.Unlock()
			// Only the member's own endpoint may refresh its liveness —
			// a forged beacon must not keep a dead member "alive".
			if !known || id.GID != gid || id.Pos != member-1 {
				continue
			}
			c.live.observe(id, round, layer, phase)
		case msgJoined:
			if _, reason := decodeJoinAck(msg.Payload); reason == joinAckRejoin {
				// A resumed host's unsolicited greeting: its state is
				// intact but its in-flight round state is gone. Stamp the
				// restart so attempts older than it replay instead of
				// stalling — the member may come back faster than the
				// liveness timeout and never look lost at all.
				c.mu.Lock()
				if id, known := c.memberOf[msg.From]; known {
					c.restarts[id] = time.Now()
					c.mu.Unlock()
					c.logf("distributed: g%d/m%d at %s announced a crash-restart (state intact)", id.GID, id.Pos, msg.From)
				} else {
					c.mu.Unlock()
				}
			}
			select {
			case c.joinCh <- msg:
			default:
			}
		case msgShareResp:
			c.shareMu.Lock()
			ch := c.shareCh
			c.shareMu.Unlock()
			if ch != nil {
				select {
				case ch <- msg:
				default:
				}
			}
		default:
			c.roundMu.Lock()
			ch := c.rounds[msg.Round>>8]
			c.roundMu.Unlock()
			if ch != nil {
				select {
				case ch <- msg:
				default:
					// Overflow cannot happen in a healthy round (the
					// coordinator sees only per-layer reports and exit
					// batches); dropping under pathology keeps the pump
					// live and surfaces as a diagnosable timeout.
				}
			}
		}
	}
}

// registerRound claims the per-round inbox one MixRound call consumes.
func (c *Cluster) registerRound(round uint64) (chan *transport.Message, error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if c.roundsClosed {
		return nil, fmt.Errorf("distributed: coordinator closed")
	}
	if _, dup := c.rounds[round]; dup {
		return nil, fmt.Errorf("distributed: round %d is already mixing", round)
	}
	ch := make(chan *transport.Message, 1024)
	c.rounds[round] = ch
	return ch, nil
}

// unregisterRound drops a finished round's inbox. The channel is not
// closed — the pump may still hold a reference for a final non-blocking
// send; unrouted leftovers are garbage-collected with it.
func (c *Cluster) unregisterRound(round uint64) {
	c.roundMu.Lock()
	delete(c.rounds, round)
	c.roundMu.Unlock()
}

// closeRounds fails every in-flight round when the coordinator endpoint
// closes; the pump is the only sender, so closing behind it is safe.
func (c *Cluster) closeRounds() {
	c.roundMu.Lock()
	c.roundsClosed = true
	for round, ch := range c.rounds {
		close(ch)
		delete(c.rounds, round)
	}
	c.roundMu.Unlock()
}

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
// active sets: it computes every group's chain from its roster,
// attaches endpoints and starts actors for newly activated members
// (spares entering a chain, recovered replacements), joins remote ones,
// and reconfigures every existing chain member in place — new chain
// order, entry table and Lagrange-weighted effective secret. It returns
// the members that failed to acknowledge within the deadline (so churn
// during a re-plan feeds back into the loss loop) — except on the
// initial provisioning (fresh), where a missing member is fatal.
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
	var fleet []MemberID     // every chain member, all groups
	var newcomers []MemberID // members with no endpoint yet
	for gid, r := range rosters {
		for _, idx := range r.Indices {
			id := MemberID{GID: gid, Pos: idx - 1}
			chains[gid] = append(chains[gid], idx-1)
			fleet = append(fleet, id)
			if _, have := c.addrs[id]; !have {
				newcomers = append(newcomers, id)
			}
		}
	}
	// Place newcomers: a pre-started remote host if configured, a fresh
	// local endpoint otherwise. If provisioning exits before a newcomer
	// endpoint gains an actor loop — an error, or a lost member cutting
	// the pass short — the ownerless endpoints must not leak (or worse,
	// linger in the address book as members that can never ack): close
	// and unlearn them, so a follow-up pass re-attaches from scratch.
	newLocal := make(map[MemberID]transport.Endpoint)
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, ep := range newLocal {
			if _, owned := c.actors[id]; owned {
				continue
			}
			_ = ep.Close()
			if addr, ok := c.addrs[id]; ok && addr == ep.Addr() {
				delete(c.addrs, id)
				delete(c.memberOf, addr)
			}
		}
	}()
	for _, id := range newcomers {
		if addr, remote := c.opts.Remote[id]; remote {
			c.addrs[id] = addr
			continue
		}
		ep, err := c.attachFresh(fmt.Sprintf("%s/g%d/m%d", c.opts.Prefix, id.GID, id.Pos))
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		newLocal[id] = ep
		c.addrs[id] = ep.Addr()
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
	addrs := make(map[MemberID]string, len(c.addrs))
	for id, a := range c.addrs {
		addrs[id] = a
	}
	c.mu.Unlock()

	// Build each chain member's config and deliver it: local newcomers
	// get a fresh actor, remote newcomers a join, existing members an
	// in-place reconfiguration. Reconfigs and joins are acknowledged —
	// the round restart must not outrun a member still holding stale
	// wiring.
	isNew := make(map[MemberID]bool, len(newcomers))
	for _, id := range newcomers {
		isNew[id] = true
	}
	// Drain stale acks from a previous provisioning attempt.
	for {
		select {
		case <-c.joinCh:
			continue
		default:
		}
		break
	}
	await := make(map[string]MemberID)
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
		switch {
		case isNew[id] && newLocal[id] != nil:
			actor, err := NewActor(mcfg, newLocal[id])
			if err != nil {
				return nil, err
			}
			actorCtx, actorCancel := context.WithCancel(c.ctx)
			la := &localActor{actor: actor, ep: newLocal[id], cancel: actorCancel}
			c.mu.Lock()
			c.actors[id] = la
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				_ = actor.Serve(actorCtx)
			}()
			c.live.reset(id, time.Now())
		case isNew[id]:
			if err := c.coord.SendCtx(ctx, addrs[id], &transport.Message{
				Type: msgJoin, Payload: mcfg.Marshal(),
			}); err != nil {
				// A dead remote spare during a re-plan is one more
				// loss for the loop to absorb, not a terminal error —
				// the group may have further spares in its budget.
				if !fresh && transport.Unreachable(err) {
					return []MemberID{id}, nil
				}
				return nil, fmt.Errorf("distributed: joining %v at %s: %w", id, addrs[id], err)
			}
			await[addrs[id]] = id
		default:
			if err := c.coord.SendCtx(ctx, addrs[id], &transport.Message{
				Type: msgReconfig, Payload: mcfg.Marshal(),
			}); err != nil && !fresh && transport.Unreachable(err) {
				return []MemberID{id}, nil
			} else if err != nil {
				return nil, fmt.Errorf("distributed: reconfiguring %v at %s: %w", id, addrs[id], err)
			}
			await[addrs[id]] = id
		}
	}

	ackBudget := c.opts.ControlTimeout
	if fresh {
		ackBudget = c.opts.JoinTimeout
	}
	deadline := time.After(ackBudget)
	for len(await) > 0 {
		select {
		case msg, okc := <-c.joinCh:
			if !okc {
				return nil, fmt.Errorf("distributed: coordinator closed during provisioning")
			}
			// Only the host we actually contacted may acknowledge — a
			// forged ack must not mask a member that never joined.
			ackOK, reason := decodeJoinAck(msg.Payload)
			if reason == joinAckRejoin {
				// A restarted member's unsolicited greeting, not an
				// acknowledgment of THIS config — counting it would let
				// a host still holding its pre-crash wiring pass for
				// provisioned.
				continue
			}
			if id, pending := await[msg.From]; pending {
				if !ackOK {
					if strings.Contains(reason, "hash mismatch") {
						// Not churn: the fleet disagrees on its group
						// config. Retrying cannot help.
						return nil, fmt.Errorf("%w: member g%d/m%d at %s refused provisioning: %s",
							protocol.ErrConfigMismatch, id.GID, id.Pos, msg.From, reason)
					}
					if fresh {
						return nil, fmt.Errorf("distributed: member g%d/m%d at %s refused provisioning: %s",
							id.GID, id.Pos, msg.From, reason)
					}
					return []MemberID{id}, nil
				}
				delete(await, msg.From)
				c.live.reset(id, time.Now())
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline:
			if fresh {
				return nil, fmt.Errorf("distributed: %d members did not join within %v", len(await), ackBudget)
			}
			var lost []MemberID
			for _, id := range await {
				lost = append(lost, id)
			}
			return lost, nil
		}
	}
	return nil, nil
}

// Addresses returns a copy of the member address book — e.g. to read
// per-node traffic counters off a MemNetwork after a round. Keys are
// stable member identities (group id, roster position).
func (c *Cluster) Addresses() map[MemberID]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[MemberID]string, len(c.addrs))
	for id, addr := range c.addrs {
		out[id] = addr
	}
	return out
}

// CoordinatorAddr returns the coordinator endpoint's address.
func (c *Cluster) CoordinatorAddr() string { return c.coord.Addr() }

// Progress reports every provisioned member's last-known liveness and
// mixing position — what a round timeout embeds, exposed for operator
// dashboards.
func (c *Cluster) Progress() []MemberProgress {
	return progressList(c.live.snapshot())
}

func progressList(snap map[MemberID]memberProgress) []MemberProgress {
	now := time.Now()
	out := make([]MemberProgress, 0, len(snap))
	for id, p := range snap {
		out = append(out, MemberProgress{
			ID: id, Round: p.Round >> 8, Layer: p.Layer, Phase: p.Phase, Age: now.Sub(p.Seen),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.GID != out[j].ID.GID {
			return out[i].ID.GID < out[j].ID.GID
		}
		return out[i].ID.Pos < out[j].ID.Pos
	})
	return out
}

// KillMember simulates a crash of a locally hosted member: its endpoint
// closes and its actor loop stops, with no notice to the deployment or
// the coordinator — detection must come from the churn machinery
// (missed heartbeats, or a peer's failed delivery). It reports whether
// the member was hosted here.
func (c *Cluster) KillMember(id MemberID) bool {
	c.mu.Lock()
	la := c.actors[id]
	delete(c.actors, id)
	c.mu.Unlock()
	if la == nil {
		return false
	}
	la.cancel()
	_ = la.ep.Close()
	return true
}

// Run executes one round over the cluster: the deployment seals rs,
// the actors mix it, and the deployment applies the variant finale —
// Deployment.RunRoundCtx with this cluster as the Mixer.
func (c *Cluster) Run(ctx context.Context, rs *protocol.RoundState, hooks *protocol.RoundHooks) (*protocol.RoundResult, error) {
	// A context that is already dead must not consume the round.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("distributed: round %d not started: %w", rs.ID(), err)
	}
	sealed, err := c.d.SealRound(rs)
	if err != nil {
		return nil, err
	}
	return c.d.MixSealed(ctx, sealed, hooks, c)
}

// wireRound tags a round attempt on the wire: churn restarts of one
// round must not collide with the canceled attempt's in-flight traffic,
// so the attempt counter rides in the low byte of the message round id.
func wireRound(round uint64, attempt int) uint64 {
	return round<<8 | uint64(attempt&0xff)
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
		chains: make([][]int, len(c.chains)),
		entry:  append([]string(nil), c.entry...),
		member: make(map[string]MemberID, len(c.memberOf)),
	}
	for gid := range c.chains {
		v.chains[gid] = append([]int(nil), c.chains[gid]...)
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

// errReplanned restarts a round attempt whose wiring snapshot went stale
// because another round's loss handling re-planned the fleet.
var errReplanned = errors.New("distributed: fleet re-planned mid-attempt")

// errRejoined restarts a round attempt after a silent member came back
// within Options.RestartGrace with its state intact: the fleet is
// unchanged — no re-plan, no budget burned — but the restarted process
// lost its per-round actor state, so the attempt must replay from its
// sealed batches.
var errRejoined = errors.New("distributed: member rejoined with state intact")

// restartedSince reports which of the attempt's chain members announced
// a crash-restart after the attempt began — alive, heartbeating, state
// dir intact, but with the attempt's in-flight mixing state gone.
func (c *Cluster) restartedSince(began time.Time, v *attemptView) []MemberID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []MemberID
	for id, at := range c.restarts {
		if at.After(began) && v.inChain(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// awaitRejoin gives the lost members Options.RestartGrace to come back
// before they are declared dead: a restarted member re-adopting its
// persisted identity resumes heartbeating at its old address, which
// refreshes its liveness record. It reports whether every lost member
// returned within the grace.
func (c *Cluster) awaitRejoin(ctx context.Context, lost []MemberID) bool {
	if c.opts.RestartGrace <= 0 || c.opts.Heartbeat <= 0 {
		return false // no grace, or no beacon to observe a rejoin by
	}
	deadline := time.After(c.opts.RestartGrace)
	tick := time.NewTicker(c.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			snap := c.live.snapshot()
			now := time.Now()
			back := 0
			for _, id := range lost {
				if p, ok := snap[id]; ok && now.Sub(p.Seen) <= c.opts.LivenessTimeout {
					back++
				}
			}
			if back == len(lost) {
				c.rejoins.Add(uint64(len(lost)))
				for _, id := range lost {
					c.logf("distributed: member g%d/m%d rejoined within the restart grace; fleet unchanged", id.GID, id.Pos)
				}
				return true
			}
		case <-deadline:
			return false
		case <-ctx.Done():
			return false
		}
	}
}

// MixRound implements protocol.Mixer: inject the sealed batches at
// every group's first member, collect per-layer reports, exit outputs
// and aborts — and, when a member is lost mid-round, re-plan the
// affected chains over the surviving members and restart the round from
// its sealed batches (§4.5 availability). A group that cannot be
// re-planned within its h−1 budget fails the round with a typed
// protocol.Loss matching both ErrMemberLost and ErrRecoveryNeeded.
//
// Up to Options.MaxInFlight rounds mix concurrently (§4.7 cross-round
// pipelining); each call owns its per-round inbox and attempt counter,
// and a churn re-plan triggered by any round restarts every in-flight
// round from its own sealed batches.
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

	roundTimer := time.NewTimer(c.opts.RoundTimeout)
	defer roundTimer.Stop()

	for attempt := 0; ; attempt++ {
		out, lost, err := c.attemptRound(job, inbox, attempt, roundTimer)
		switch {
		case errors.Is(err, errReplanned):
			// Another round's loss handling already re-planned the fleet;
			// restart this round against the new wiring.
			if attempt+1 > c.opts.MaxRestarts {
				return nil, &protocol.Loss{GID: -1, Member: -1, Err: fmt.Errorf(
					"%w: round %d exceeded %d churn restarts", protocol.ErrMemberLost, job.Round, c.opts.MaxRestarts)}
			}
			c.logf("distributed: round %d: fleet re-planned elsewhere, restarting (attempt %d)", job.Round, attempt+1)
			continue
		case errors.Is(err, errRejoined):
			// A silent member came back within the restart grace with its
			// persisted state intact: same fleet, same keys, no budget
			// burned — just replay the attempt from the sealed batches.
			if attempt+1 > c.opts.MaxRestarts {
				return nil, &protocol.Loss{GID: -1, Member: -1, Err: fmt.Errorf(
					"%w: round %d exceeded %d churn restarts", protocol.ErrMemberLost, job.Round, c.opts.MaxRestarts)}
			}
			c.logf("distributed: round %d: restarting after rejoin (attempt %d)", job.Round, attempt+1)
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
		if attempt+1 > c.opts.MaxRestarts {
			first := lost[0]
			return nil, &protocol.Loss{GID: first.GID, Member: first.Pos + 1, Err: fmt.Errorf(
				"%w: round %d exceeded %d churn restarts", protocol.ErrMemberLost, job.Round, c.opts.MaxRestarts)}
		}
		c.logf("distributed: round %d: re-planned, restarting (attempt %d)", job.Round, attempt+1)
	}
}

// replan handles a round's observed member losses: under the epoch lock
// it fails the members that are still provisioned, re-chains every
// affected group over the survivors, reconfigures the fleet, and bumps
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
	for {
		more, perr := c.provision(ctx, false)
		if perr != nil {
			// A caller cancellation that lands during the re-plan
			// is still a cancellation — it must never dress up as
			// a member loss.
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("distributed: round %d canceled during re-plan: %w", round, cerr)
			}
			return &protocol.Loss{GID: first.GID, Member: first.Pos + 1, Err: fmt.Errorf(
				"%w: round %d: group %d lost member %d: %w",
				protocol.ErrMemberLost, round, first.GID, first.Pos+1, perr)}
		}
		if len(more) == 0 {
			break
		}
		for _, id := range more {
			c.logf("distributed: round %d: member g%d/m%d unresponsive during re-plan", round, id.GID, id.Pos)
			c.d.FailGroupMember(id.GID, id.Pos)
			c.removeMember(id)
		}
	}
	// The fleet is re-wired: tell every in-flight attempt its snapshot
	// is stale.
	c.replans.Add(1)
	c.epoch++
	close(c.epochCh)
	c.epochCh = make(chan struct{})
	return nil
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
	c.mu.Unlock()
	c.live.forget(id)
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
		var la *localActor
		if a.GID >= 0 && a.GID < len(v.chains) && a.Member >= 0 && a.Member < len(v.chains[a.GID]) {
			la = c.actors[MemberID{GID: a.GID, Pos: v.chains[a.GID][a.Member]}]
		}
		c.mu.Unlock()
		if la == nil {
			return nil, nil, fmt.Errorf("distributed: adversary targets group %d member %d, which is not hosted locally", a.GID, a.Member)
		}
		la.actor.SetTamper(wire, a.Layer, a.Tamper)
		defer la.actor.SetTamper(0, 0, nil)
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

	var (
		out       = &protocol.MixOutcome{ExitPayloads: make(map[int][][]byte, G)}
		layerWork = make([]map[int]work, T) // layer → gid → work
		doneAt    = make([]time.Time, T)    // layer → completion time
		emitted   = 0                       // layers flushed, in order
		exits     = make(map[int][]elgamal.Vector, G)
		attStart  = time.Now()
	)
	for layer := range layerWork {
		layerWork[layer] = make(map[int]work, G)
	}
	var liveTick <-chan time.Time
	if c.opts.Heartbeat > 0 {
		t := time.NewTicker(c.opts.Heartbeat)
		defer t.Stop()
		liveTick = t.C
	}

	// The attempt is done when every exit batch AND every layer report
	// has landed (the exit vectors can arrive ahead of the last layer's
	// accounting).
	for len(exits) < G || emitted < T {
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
				layerWork[layer][gid] = w
				if len(layerWork[layer]) == G {
					doneAt[layer] = time.Now()
				}
				// Flush completed layers strictly in order: a slow link
				// can deliver layer t's last report after layer t+1
				// completes, and IterationDone must still observe
				// layers 0, 1, 2, … with sane durations.
				for emitted < T && len(layerWork[emitted]) == G {
					prev := attStart
					if emitted > 0 {
						prev = doneAt[emitted-1]
					}
					dur := doneAt[emitted].Sub(prev)
					if dur < 0 {
						dur = 0 // completed before an earlier layer's report landed
					}
					it := c.layerStats(job, emitted, layerWork[emitted], dur, workers)
					out.Iterations = append(out.Iterations, it)
					if job.Hooks != nil && job.Hooks.IterationDone != nil {
						job.Hooks.IterationDone(it)
					}
					emitted++
				}
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
				if _, dup := exits[gid]; dup {
					continue // first report wins; a second cannot overwrite it
				}
				exits[gid] = vecs
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
				if reporter.GID != gid {
					continue // a member may only report (and blame) its own group
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
			if c.opts.RestartGrace > 0 {
				if ids := c.restartedSince(began, v); len(ids) > 0 {
					c.cancelRound(wire)
					for _, id := range ids {
						c.logf("distributed: round %d: g%d/m%d restarted mid-attempt with state intact; replaying the attempt", job.Round, id.GID, id.Pos)
					}
					c.rejoins.Add(uint64(len(ids)))
					return nil, nil, errRejoined
				}
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
				Round: job.Round, After: c.opts.RoundTimeout, Progress: progressList(c.live.snapshot()),
			}
		}
	}

	for gid, vecs := range exits {
		payloads, err := protocol.ExtractExitPayloads(vecs)
		if err != nil {
			return nil, nil, fmt.Errorf("distributed: exit group %d: %w", gid, err)
		}
		out.ExitPayloads[gid] = payloads
	}
	liveBy := c.liveByGroup()
	for layer := 0; layer < T; layer++ {
		for gid := 0; gid < G; gid++ {
			w := layerWork[layer][gid]
			out.Traces = append(out.Traces, protocol.StepTrace{
				GID: gid, Layer: layer,
				Shuffles: w.Shuffles, ReEncs: w.ReEncs, ProofsChecked: w.Proofs,
				Workers: workers, Busy: time.Duration(w.BusyNs),
				Members: liveBy[gid],
			})
		}
	}
	return out, nil, nil
}

// liveByGroup reads each group's live membership off the deployment —
// the degraded-mode number traces and stats carry.
func (c *Cluster) liveByGroup() []int {
	G := c.topo.Groups()
	out := make([]int, G)
	for gid := 0; gid < G; gid++ {
		n, err := c.d.GroupLiveMembers(gid)
		if err == nil {
			out[gid] = n
		}
	}
	return out
}

// layerStats folds a completed layer's per-group work into the
// deployment's IterationStats shape. Duration is coordinator-observed:
// time from the previous layer's completion to this one's, which —
// unlike the in-process mixer — includes real (or modeled) network
// latency between the groups.
func (c *Cluster) layerStats(job *protocol.MixJob, layer int, byGID map[int]work, dur time.Duration, workers int) protocol.IterationStats {
	it := protocol.IterationStats{
		Round: job.Round, Layer: layer, Duration: dur, Workers: workers,
	}
	for _, w := range byGID {
		it.Messages += w.Msgs
		it.Shuffles += w.Shuffles
		it.ReEncs += w.ReEncs
		it.ProofsChecked += w.Proofs
		it.WorkerBusy += time.Duration(w.BusyNs)
		if w.Msgs > 0 {
			it.ActiveGroups++
		}
	}
	for _, n := range c.liveByGroup() {
		it.Members += n
	}
	return it
}

// cancelRound tells every actor to drop the round attempt's state and
// traffic.
func (c *Cluster) cancelRound(wire uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ControlTimeout)
	defer cancel()
	for _, addr := range c.Addresses() {
		_ = c.coord.SendCtx(ctx, addr, &transport.Message{Type: msgCancel, Round: wire})
	}
}

// RecoverGroup drives §4.5 buddy-group recovery for a group that has
// fallen below threshold, entirely over the wire: for every failed
// position the coordinator solicits escrow pieces from a live buddy
// group's member actors (msgShareReq/msgShareResp), reconstructs the
// lost share, verifies it against the group's public Feldman
// commitments, installs the given replacement server, and finally
// re-provisions the fleet — the replacement member joins through the
// same path a remote host does, and every member learns the recovered
// wiring. After it returns nil, Deployment.GroupNeedsRecovery(gid)
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
	// Re-provision: replacements get endpoints and join; survivors are
	// reconfigured onto the recovered chain. The epoch lock serializes
	// this against in-flight rounds' churn handling, and the final epoch
	// bump restarts any round that was mixing over the pre-recovery
	// wiring.
	c.epochMu.Lock()
	defer func() {
		c.epoch++
		close(c.epochCh)
		c.epochCh = make(chan struct{})
		c.epochMu.Unlock()
	}()
	for budget := 0; ; budget++ {
		lost, err := c.provision(ctx, false)
		if err != nil {
			return err
		}
		if len(lost) == 0 {
			c.recoveries.Add(1)
			return nil
		}
		if budget >= c.opts.MaxRestarts {
			return fmt.Errorf("%w: churn during recovery of group %d", protocol.ErrMemberLost, gid)
		}
		for _, id := range lost {
			c.logf("distributed: member g%d/m%d unresponsive during recovery re-plan", id.GID, id.Pos)
			c.d.FailGroupMember(id.GID, id.Pos)
			c.removeMember(id)
		}
	}
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
		deadline := time.After(c.opts.ControlTimeout)
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
					buddy, len(pieces), c.opts.ControlTimeout, plan.Threshold)
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

// Close stops every actor (remote ones by message, local ones by
// context), closes the endpoints and waits for the loops and the pump.
func (c *Cluster) Close() {
	if c.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), c.controlTimeout())
		for _, addr := range c.Addresses() {
			_ = c.coord.SendCtx(ctx, addr, &transport.Message{Type: msgStop})
		}
		cancel()
	}
	if c.cancel != nil {
		c.cancel()
	}
	c.mu.Lock()
	eps := make([]transport.Endpoint, 0, len(c.actors))
	for _, la := range c.actors {
		eps = append(eps, la.ep)
	}
	c.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	if c.coord != nil {
		_ = c.coord.Close()
	}
	c.wg.Wait()
}

// controlTimeout is Options.ControlTimeout with a pre-resolution
// fallback (Close may run on a half-built cluster).
func (c *Cluster) controlTimeout() time.Duration {
	if c.opts.ControlTimeout > 0 {
		return c.opts.ControlTimeout
	}
	return 2 * time.Second
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
