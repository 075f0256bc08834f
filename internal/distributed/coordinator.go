package distributed

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/protocol"
	"atom/internal/taxonomy"
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

// Options is what a deployment sets on its Cluster: where members live,
// how fast a silent one is noticed, and which group-config file the
// fleet must agree on. Everything else is a constant below.
type Options struct {
	// Attach places locally hosted members and the coordinator.
	Attach AttachFunc
	// Remote maps members to pre-started HostMember endpoints (e.g.
	// atomd -member processes); members not listed are hosted locally.
	// Either way a member receives its MemberConfig over the transport.
	Remote map[MemberID]string
	// Workers bounds each actor's crypto pool. Zero selects CPUs/G —
	// locally hosted groups share this machine, like MixConfig.
	Workers int
	// Heartbeat is the members' liveness-beacon period (default 500ms;
	// negative disables heartbeats, leaving failed-delivery reports as
	// the only churn detector and a crash-restart unobservable).
	Heartbeat time.Duration
	// LivenessTimeout is how long a member may stay silent before the
	// coordinator declares it lost (default 4×Heartbeat). Keep it a
	// few beacon periods wide: heartbeats ride the same links as
	// batches, so a too-tight bound turns WAN jitter into churn.
	LivenessTimeout time.Duration
	// ConfigHash is the canonical group-config hash
	// (store.GroupConfig.Hash) stamped into every member's config. Hosts
	// started with their own hash (atomd -config) refuse a config
	// carrying a different one, and the cluster treats such a refusal as
	// a terminal taxonomy.ErrConfigMismatch, not churn.
	ConfigHash []byte
	// Log, when non-nil, receives operator-grade churn events
	// (detections, re-plans, recoveries). Printf-shaped.
	Log func(format string, args ...any)
}

const (
	// nodePrefix namespaces the cluster's node names on its transport.
	nodePrefix = "atom"
	// roundTimeout bounds one round's mixing in addition to the caller's
	// context. It spans churn restarts: a round that keeps losing members
	// does not get a fresh budget per restart.
	roundTimeout = 5 * time.Minute
	// joinTimeout is how long a member gets to come up: to acknowledge
	// its config at setup, and — if its host persists its config (the
	// durable bit of its ack) — to come BACK after going silent or
	// unreachable mid-round, before the coordinator burns h−1 budget on a
	// re-plan (awaitRejoin). A non-durable member has nothing to come
	// back with, so its silence is a loss at once.
	joinTimeout = 30 * time.Second
	// controlTimeout bounds the cluster's control-plane traffic — cancel
	// fan-outs, stop notifications, re-config acks and escrow
	// solicitation.
	controlTimeout = 2 * time.Second
	// maxRestarts caps how many times one round may re-plan and restart
	// after member losses before giving up.
	maxRestarts = 8
)

// configAck is a provisioned member's decoded verdict on a config, as
// the pump hands it to the provisioning pass.
type configAck struct {
	id      MemberID
	code    ackCode
	durable bool
}

// ClusterStats counts the cluster's churn-handling activity since
// construction — the observability surface fault-injection tests assert
// against: a crash-restart with state intact must show up as a rejoin
// with zero re-plans and zero recoveries.
type ClusterStats struct {
	// Rejoins counts durable members re-admitted after a silence (or a
	// restart too fast to look like one) — restarts with state intact.
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

// Cluster is the distributed round engine: one actor per active group
// member (hosted locally or adopted remotely), a coordinator endpoint
// that injects sealed batches and collects exits, and an implementation
// of protocol.Mixer, so Deployment.MixSealed runs the identical round
// lifecycle — finale, blame records — over it.
//
// The cluster is churn-tolerant end to end: members heartbeat the
// coordinator, a silent or unreachable member is detected within
// Options.LivenessTimeout and reported as a typed taxonomy.Loss
// (errors.Is(err, taxonomy.ErrMemberLost)); while the group still has
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
	mu sync.Mutex
	// actors holds the locally hosted members' handles, kept only to
	// tear one down (KillMember) and for the Adversary surface's tamper
	// hook; nothing else distinguishes them from remote members.
	actors   map[MemberID]*Actor
	addrs    map[MemberID]string
	memberOf map[string]MemberID
	chains   [][]int  // gid → member positions (0-based), chain order
	entry    []string // gid → first chain member's address
	// durable marks the members whose hosts persist their config (the
	// durable bit of their last ack) — the ones a silence of which may be
	// a restart. restarts records each durable member's last crash-restart
	// announcement (the unsolicited rejoin greeting a resumed host
	// sends). A member can restart so fast it never misses a liveness
	// beat — yet its in-flight round state died with the old process, so
	// any attempt older than the announcement would stall forever.
	// attemptRound checks this on every liveness tick.
	durable  map[MemberID]bool
	restarts map[MemberID]time.Time

	// The pump goroutine owns the coordinator inbox and routes traffic:
	// heartbeats to the liveness tracker, config acks to ackCh, escrow
	// pieces to the registered share channel, and round traffic to
	// the per-round channel registered by each in-flight MixRound (keyed
	// by the base round id — the attempt counter in the low wire byte is
	// filtered downstream).
	ackCh        chan configAck
	roundMu      sync.Mutex
	rounds       map[uint64]chan *transport.Message
	roundsClosed bool
	shareMu      sync.Mutex
	shareCh      chan *transport.Message

	// sem bounds the in-flight rounds at protocol.MaxPipelinedRounds,
	// whatever pipeline depth the caller drives.
	sem chan struct{}

	// epochMu serializes churn re-planning (and all provisioning). Each
	// re-plan — failing the lost members, re-chaining the survivors,
	// re-configuring every actor — bumps epoch and closes epochCh, telling
	// every in-flight round attempt that its wiring snapshot is stale:
	// the attempt cancels its wire traffic and restarts from its sealed
	// batches against the new plan. That is the cross-round isolation
	// contract: a loss detected by round r restarts r AND r+1, rather
	// than r+1 silently mixing over a half-reconfigured fleet.
	epochMu sync.Mutex
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
// ceremony that would otherwise have provisioned each server), starts an
// unconfigured host for every member not in Options.Remote, starts the
// coordinator pump, and ships every member its MemberConfig.
func NewCluster(d *protocol.Deployment, opts Options) (*Cluster, error) {
	if opts.Attach == nil {
		return nil, fmt.Errorf("distributed: Options.Attach is required")
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
		actors:   make(map[MemberID]*Actor),
		addrs:    make(map[MemberID]string),
		memberOf: make(map[string]MemberID),
		chains:   make([][]int, G),
		entry:    make([]string, G),
		durable:  make(map[MemberID]bool),
		restarts: make(map[MemberID]time.Time),
		rounds:   make(map[uint64]chan *transport.Message),
		// One ack per config message, and a provisioning pass sends each
		// roster member at most one.
		ackCh:   make(chan configAck, G*d.Config().GroupSize),
		sem:     make(chan struct{}, protocol.MaxPipelinedRounds),
		epochCh: make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	coord, err := opts.Attach(nodePrefix + "/coord")
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
		case msgConfigAck:
			code, durable, err := decodeConfigAck(msg.Payload)
			c.mu.Lock()
			id, known := c.memberOf[msg.From]
			restarted := known && err == nil && code == ackRejoin && c.durable[id]
			if restarted {
				// A resumed host's unsolicited greeting: its state is
				// intact but its in-flight round state is gone. Stamp the
				// restart so attempts older than it replay instead of
				// stalling — the member may come back faster than the
				// liveness timeout and never look lost at all.
				c.restarts[id] = time.Now()
			}
			c.mu.Unlock()
			switch {
			case restarted:
				c.logf("distributed: g%d/m%d at %s announced a crash-restart (state intact)", id.GID, id.Pos, msg.From)
			case known && err == nil && code != ackRejoin:
				// A verdict on a config this coordinator sent. Only a
				// provisioned address may deliver one — a forged ack must
				// not mask a member that never adopted its config — and a
				// greeting is not one: counting it would let a host still
				// holding its pre-crash wiring pass for provisioned.
				select {
				case c.ackCh <- configAck{id: id, code: code, durable: durable}:
				default:
				}
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

// KillMember simulates a crash of a locally hosted member: its endpoint
// closes and its actor loop stops, with no notice to the deployment or
// the coordinator — detection must come from the churn machinery
// (missed heartbeats, or a peer's failed delivery). It reports whether
// the member was hosted here.
func (c *Cluster) KillMember(id MemberID) bool {
	c.mu.Lock()
	actor := c.actors[id]
	delete(c.actors, id)
	c.mu.Unlock()
	if actor == nil {
		return false
	}
	_ = actor.ep.Close() // ends its Serve loop
	return true
}

// Run executes one round over the cluster: the deployment seals rs,
// the actors mix it, and the deployment applies the variant finale —
// Deployment.RunRoundCtx with this cluster as the Mixer.
func (c *Cluster) Run(ctx context.Context, rs *protocol.RoundState, hooks *protocol.RoundHooks) (*protocol.RoundResult, error) {
	// A context that is already dead must not consume the round.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: round %d not started: %w", taxonomy.ErrRoundAborted, rs.ID(), err)
	}
	sealed, err := c.d.SealRound(rs)
	if err != nil {
		return nil, err
	}
	return c.d.MixSealed(ctx, sealed, hooks, c)
}

// Close stops every actor (remote ones by message, local ones by
// context), closes the endpoints and waits for the loops and the pump.
func (c *Cluster) Close() {
	if c.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
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
	for _, actor := range c.actors {
		eps = append(eps, actor.ep)
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
