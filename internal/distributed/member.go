package distributed

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/parallel"
	"atom/internal/protocol"
	"atom/internal/topology"
	"atom/internal/transport"
)

// TopoSpec names a permutation network so a remote actor can rebuild
// the exact topology the deployment mixes over.
type TopoSpec struct {
	Name       string // "square" or "butterfly"
	Groups     int
	Iterations int // square: T
	Reps       int // butterfly: repetitions
}

// Build constructs the topology.
func (s TopoSpec) Build() (topology.Topology, error) {
	switch s.Name {
	case "square":
		return topology.NewSquare(s.Groups, s.Iterations)
	case "butterfly":
		reps := s.Reps
		if reps < 1 {
			reps = 2
		}
		return topology.NewButterfly(s.Groups, reps)
	default:
		return nil, fmt.Errorf("distributed: unknown topology %q", s.Name)
	}
}

// MemberConfig is everything one member actor needs for a deployment:
// its identity, its (and only its) secret, the public roster it
// verifies the other members against, and the addressing of the whole
// network.
type MemberConfig struct {
	// GID and Pos locate the member: group id and 0-based position in
	// the group's active mixing chain.
	GID int
	Pos int
	// Indices are the DVSS indices of the chain, in order (Indices[Pos]
	// is this member's).
	Indices []int
	// Secret is this member's effective (Lagrange-weighted) secret.
	Secret *ecc.Scalar
	// EffPubs are the chain's effective public keys — the public DKG
	// material proofs are verified against, never the prover's claim.
	EffPubs []*ecc.Point
	// GroupPK is this group's public key; GroupPKs indexes every
	// group's key by gid (re-encryption destinations).
	GroupPK  *ecc.Point
	GroupPKs []*ecc.Point
	// Peers are the chain's transport addresses, in chain order.
	Peers []string
	// Entry[g] is the first-member address of group g (inter-group
	// forwarding).
	Entry []string
	// Coordinator receives out/layer/abort messages.
	Coordinator string
	// Variant selects NIZK proofs vs trap accounting.
	Variant protocol.Variant
	// Workers bounds the actor's crypto worker pool (<1 = serial).
	Workers int
	// Topo rebuilds the permutation network.
	Topo TopoSpec
	// Heartbeat is the member's liveness-beacon period toward the
	// coordinator (0 disables heartbeats).
	Heartbeat time.Duration
	// Escrows are the buddy-group share fragments this member holds for
	// other groups' §4.5 recovery, provisioned at setup exactly like the
	// member's own secret.
	Escrows []protocol.EscrowPiece
	// ConfigHash is the canonical hash of the deployment's group-config
	// file (store.GroupConfig.Hash). A host started with its own hash
	// refuses joins carrying a different one — both parties must be
	// provisioned from the same file. Empty disables the check.
	ConfigHash []byte
}

// assembly accumulates a layer's inbound batches at the first member.
type assembly struct {
	got map[int][]elgamal.Vector // source gid (−1 = coordinator) → batch
	// workers is the round's worker knob carried by the inbound batch
	// messages (MixJob.Workers, threaded through every hop).
	workers int
	// codecNs is the time spent decoding the batches, the first entry of
	// the layer's work.CodecNs.
	codecNs int64
}

// tamperHook injects a malicious shuffle for one (round, layer) — the
// distributed counterpart of protocol.Adversary, installed by the
// cluster on locally hosted actors.
type tamperHook struct {
	round uint64
	layer int
	fn    func([]elgamal.Vector) []elgamal.Vector
}

// progress is an actor's last-known mixing position, piggybacked on
// every heartbeat so the coordinator can say where each member was when
// a round stalls.
type progress struct {
	Round uint64
	Layer int
	Phase string
	At    time.Time
}

// Actor is one member's event loop. It boots unconfigured — holding an
// endpoint and its host's options, no key material — and becomes a
// group member by adopting a MemberConfig (adopt), which is also how it
// is re-configured after churn and how it resumes from disk. All state
// is confined to the Serve goroutine except the tamper hook (set by the
// cluster between rounds) and the heartbeat snapshot (read by the
// heartbeat goroutine).
type Actor struct {
	ep   transport.Endpoint
	opts HostOptions
	// cfg and topo are the adopted config; topo is nil until the first
	// adoption, and an unconfigured actor serves nothing but config
	// messages.
	cfg  MemberConfig
	topo topology.Topology

	// pending[round][layer] assembles inbound batches (first member).
	pending map[uint64]map[int]*assembly
	// dropped marks rounds canceled by the coordinator.
	dropped  map[uint64]bool
	maxRound uint64
	// beating records that the heartbeat goroutine is running.
	beating bool

	mu     sync.Mutex
	tamper *tamperHook
	// hb snapshots what the heartbeat goroutine needs (identity +
	// progress); every adoption rewrites it under mu.
	hb struct {
		gid, idx    int
		coordinator string
		prog        progress
	}
}

// checkConfig validates a MemberConfig and builds its topology.
func checkConfig(cfg *MemberConfig) (topology.Topology, error) {
	if cfg.Pos < 0 || cfg.Pos >= len(cfg.Peers) || len(cfg.Peers) != len(cfg.Indices) || len(cfg.Peers) != len(cfg.EffPubs) {
		return nil, fmt.Errorf("distributed: inconsistent member config (pos %d of %d peers, %d indices, %d effpubs)",
			cfg.Pos, len(cfg.Peers), len(cfg.Indices), len(cfg.EffPubs))
	}
	topo, err := cfg.Topo.Build()
	if err != nil {
		return nil, err
	}
	if cfg.GID < 0 || cfg.GID >= topo.Groups() || len(cfg.GroupPKs) != topo.Groups() || len(cfg.Entry) != topo.Groups() {
		return nil, fmt.Errorf("distributed: member config does not match topology (gid %d, %d group keys, %d entries, G=%d)",
			cfg.GID, len(cfg.GroupPKs), len(cfg.Entry), topo.Groups())
	}
	return topo, nil
}

// adopt is the one way a config enters a member — first config,
// re-config after churn and resume from disk alike: decode, gate on the
// host's group-config hash, validate, persist (unless the bytes came
// from the state dir already), then install with a clean per-round slate
// (the coordinator restarts an interrupted round from its sealed
// batches, so stale assemblies must not leak into the new attempt). Any
// verdict but ackAccepted leaves the actor exactly as it was. Runs on
// the Serve goroutine, or before it starts.
func (a *Actor) adopt(raw []byte, persist bool) ackCode {
	cfg, err := UnmarshalMemberConfig(raw)
	if err != nil {
		return ackBadConfig
	}
	if len(a.opts.ConfigHash) > 0 && !bytes.Equal(cfg.ConfigHash, a.opts.ConfigHash) {
		return ackHashMismatch
	}
	topo, err := checkConfig(cfg)
	if err != nil {
		return ackBadConfig
	}
	if persist && a.opts.OnConfig != nil {
		// Durable before acknowledged: after the ack the coordinator
		// counts on this exact config surviving a crash of this host.
		if err := a.opts.OnConfig(raw); err != nil {
			return ackPersistFailed
		}
	}
	a.cfg = *cfg
	a.topo = topo
	a.pending = make(map[uint64]map[int]*assembly)
	a.dropped = make(map[uint64]bool)
	a.maxRound = 0
	a.mu.Lock()
	a.hb.gid = cfg.GID
	a.hb.idx = cfg.Indices[cfg.Pos]
	a.hb.coordinator = cfg.Coordinator
	a.hb.prog = progress{Phase: "configured", At: time.Now()}
	a.mu.Unlock()
	return ackAccepted
}

// ack answers (or, for a resumed host, volunteers) a config verdict.
func (a *Actor) ack(ctx context.Context, to string, code ackCode) {
	_ = a.ep.SendCtx(ctx, to, &transport.Message{
		Type: msgConfigAck, Payload: encodeConfigAck(code, a.opts.OnConfig != nil),
	})
}

// noteProgress records the actor's mixing position for heartbeats.
func (a *Actor) noteProgress(round uint64, layer int, phase string) {
	a.mu.Lock()
	a.hb.prog = progress{Round: round, Layer: layer, Phase: phase, At: time.Now()}
	a.mu.Unlock()
}

// SetTamper installs a one-round malicious-shuffle hook (testing / the
// deployment's Adversary surface). Pass fn=nil to clear.
func (a *Actor) SetTamper(round uint64, layer int, fn func([]elgamal.Vector) []elgamal.Vector) {
	a.mu.Lock()
	if fn == nil {
		a.tamper = nil
	} else {
		a.tamper = &tamperHook{round: round, layer: layer, fn: fn}
	}
	a.mu.Unlock()
}

func (a *Actor) takeTamper(round uint64, layer int) func([]elgamal.Vector) []elgamal.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tamper != nil && a.tamper.round == round && a.tamper.layer == layer {
		return a.tamper.fn
	}
	return nil
}

// Serve processes messages until the endpoint closes, a stop message
// arrives, or ctx ends. Member errors abort the round toward the
// coordinator but keep the actor alive for subsequent rounds. Once the
// actor holds a config, a heartbeat goroutine beacons its liveness (and
// last-known progress) to the coordinator every cfg.Heartbeat.
func (a *Actor) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the heartbeat with the loop
	a.ensureHeartbeat(ctx)
	for {
		select {
		case msg, ok := <-a.ep.Inbox():
			if !ok {
				return nil
			}
			if msg.Type == msgStop {
				if a.topo == nil || msg.From == a.cfg.Coordinator {
					return nil
				}
				continue // a rogue peer must not stop a configured actor
			}
			a.handle(ctx, msg)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ensureHeartbeat starts the liveness beacon the first time the actor
// holds a config that asks for one.
func (a *Actor) ensureHeartbeat(ctx context.Context) {
	if a.beating || a.topo == nil || a.cfg.Heartbeat <= 0 {
		return
	}
	a.beating = true
	go a.heartbeatLoop(ctx, a.cfg.Heartbeat)
}

// heartbeatLoop beacons liveness to the coordinator. It runs beside the
// Serve goroutine — a member grinding through a long crypto step keeps
// beating, so slowness is never mistaken for death; only a crashed
// process (or closed endpoint) goes silent.
func (a *Actor) heartbeatLoop(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		a.mu.Lock()
		gid, idx, coord, prog := a.hb.gid, a.hb.idx, a.hb.coordinator, a.hb.prog
		a.mu.Unlock()
		_ = a.ep.SendCtx(ctx, coord, &transport.Message{
			Type: msgHeartbeat, Round: prog.Round,
			Payload: encodeHeartbeatMsg(gid, idx, prog.Round, prog.Layer, prog.Phase),
		})
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// senderOK authenticates a message's transport-level sender address:
// each chain message type has exactly one legitimate origin, so frames
// from anyone else are dropped without aborting the round or touching
// per-round state — a rogue peer must not be able to cancel rounds,
// poison future round ids, or inject chain steps. The in-memory
// network makes From unforgeable; over raw TCP it is spoofable, which
// is the §2.1 assumption that deployment links are authenticated (TLS).
// An unconfigured actor has no chain and no coordinator yet: it takes a
// config from anyone (the first valid one wins) and nothing else.
func (a *Actor) senderOK(msg *transport.Message) bool {
	if a.topo == nil {
		return msg.Type == msgConfig
	}
	k := len(a.cfg.Peers)
	switch msg.Type {
	case msgCancel, msgConfig, msgShareReq:
		return msg.From == a.cfg.Coordinator
	case msgShuffle:
		return a.cfg.Pos > 0 && msg.From == a.cfg.Peers[a.cfg.Pos-1]
	case msgDivide:
		return a.cfg.Pos == 0 && msg.From == a.cfg.Peers[k-1]
	case msgReEnc:
		return msg.From == a.cfg.Peers[(a.cfg.Pos-1+k)%k]
	default:
		return true // msgBatch validates its origin against the decoded src
	}
}

// handle dispatches one message; failures abort the round.
func (a *Actor) handle(ctx context.Context, msg *transport.Message) {
	round := msg.Round
	if !a.senderOK(msg) {
		return
	}
	switch msg.Type {
	case msgCancel:
		a.drop(round)
		return
	case msgConfig:
		// Every config message is answered, refusals included: the
		// coordinator must learn that the fleet disagrees on its
		// parameters, or that this host cannot keep its promise to hold
		// the config, without waiting out an ack timeout.
		a.ack(ctx, msg.From, a.adopt(msg.Payload, true))
		a.ensureHeartbeat(ctx)
		return
	case msgShareReq:
		a.handleShareReq(ctx, msg)
		return
	}
	// Per-round state (observeRound pruning, assembly) is only touched
	// inside the handlers, after each message's origin is fully
	// authenticated — an unauthenticated frame with a huge round id
	// must not prune the live round's assemblies.
	if a.dropped[round] {
		return
	}
	var err error
	layer := -1
	switch msg.Type {
	case msgBatch:
		layer, err = a.handleBatch(ctx, round, msg)
	case msgShuffle:
		layer, err = a.handleShuffle(ctx, round, msg)
	case msgDivide:
		layer, err = a.handleDivide(ctx, round, msg)
	case msgReEnc:
		layer, err = a.handleReEnc(ctx, round, msg)
	default:
		return // not ours (coordinator traffic, unknown types)
	}
	if err != nil {
		a.drop(round)
		a.abort(ctx, round, layer, err)
	}
}

// maxPipelinedRounds caps how many rounds the cluster mixes
// concurrently (the caller's pipeline depth, ServeOptions.MaxInFlight,
// is the knob below it): more than this would let a live round's actor
// state age out of the members' pruning window below.
const maxPipelinedRounds = 8

// pipelineWindow is how many base rounds of per-round state an actor
// retains behind the newest it has seen. Cross-round pipelining means a
// batch for round r can still arrive while rounds up to
// r+maxPipelinedRounds−1 are already flowing, so the window keeps 2×
// that margin; anything further back is settled (published, aborted, or
// canceled) and its assemblies are garbage.
const pipelineWindow = 2 * maxPipelinedRounds

// observeRound prunes state of rounds that have fallen out of the
// pipelining window. The wire round id carries the attempt counter in
// its low byte, so the window compares base rounds (id >> 8): attempts
// of live rounds are never pruned by each other — stale attempts die by
// explicit msgCancel instead.
func (a *Actor) observeRound(round uint64) {
	if round <= a.maxRound {
		return
	}
	a.maxRound = round
	floor := a.maxRound >> 8
	for r := range a.pending {
		if floor-(r>>8) > pipelineWindow {
			delete(a.pending, r)
		}
	}
	for r := range a.dropped {
		if floor-(r>>8) > pipelineWindow {
			delete(a.dropped, r)
		}
	}
}

func (a *Actor) drop(round uint64) {
	a.dropped[round] = true
	delete(a.pending, round)
}

// handleShareReq answers the coordinator's §4.5 escrow solicitation:
// if this member holds a piece of the named failed share, it hands it
// back. Pieces travel over the same channel the member's own secret
// arrived on — the §2.1 protected-link assumption.
func (a *Actor) handleShareReq(ctx context.Context, msg *transport.Message) {
	gid, pos, err := decodeShareReqMsg(msg.Payload)
	if err != nil {
		return
	}
	for _, esc := range a.cfg.Escrows {
		if esc.GID == gid && esc.Pos == pos {
			_ = a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
				Type:    msgShareResp,
				Payload: encodeShareRespMsg(gid, pos, a.cfg.Indices[a.cfg.Pos], esc.Piece),
			})
			return
		}
	}
}

// peerDown marks a failed chain delivery: the member at addr — group
// gid, DVSS index idx (−1 for "that group's first member") — is
// unreachable, so the round cannot proceed until the coordinator
// re-plans around it.
type peerDown struct {
	gid, idx int
	addr     string
	err      error
}

func (p *peerDown) Error() string {
	return fmt.Sprintf("distributed: peer %s (group %d member %d) unreachable: %v", p.addr, p.gid, p.idx, p.err)
}

func (p *peerDown) Unwrap() error { return p.err }

// sendChain delivers one chain message, classifying an unreachable
// destination as a peer-down failure attributed to (gid, idx) so the
// coordinator learns WHICH member is gone instead of receiving an
// opaque abort.
func (a *Actor) sendChain(ctx context.Context, to string, gid, idx int, msg *transport.Message) error {
	err := a.ep.SendCtx(ctx, to, msg)
	if err != nil && transport.Unreachable(err) {
		return &peerDown{gid: gid, idx: idx, addr: to, err: err}
	}
	return err
}

// abort reports a member failure to the coordinator, classified for the
// protocol error taxonomy.
func (a *Actor) abort(ctx context.Context, round uint64, layer int, err error) {
	class, gid, member := abortInternal, a.cfg.GID, -1
	var blame *protocol.Blame
	var pd *peerDown
	switch {
	case errors.As(err, &blame):
		class, gid, member = abortProof, blame.GID, blame.Member
	case errors.As(err, &pd):
		class, gid, member = abortPeer, pd.gid, pd.idx
	case parallel.Canceled(err):
		class = abortCanceled
	}
	_ = a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
		Type: msgAbort, Round: round,
		Payload: encodeAbortMsg(layer, gid, member, class, err.Error()),
	})
}

// engine builds the member's crypto engine (fresh pool per step so busy
// time is attributable). workers is the round's knob from the message
// chain; values below 1 fall back to the actor's configured default.
func (a *Actor) engine(ctx context.Context, workers int) (*protocol.MemberEngine, *parallel.Pool) {
	if workers < 1 {
		workers = a.cfg.Workers
	}
	pool := parallel.New(ctx, workers)
	return &protocol.MemberEngine{
		GID:     a.cfg.GID,
		Variant: a.cfg.Variant,
		GroupPK: a.cfg.GroupPK,
		Pool:    pool,
	}, pool
}

// checkLayer bounds a wire-supplied layer before it reaches topology
// arithmetic (a hostile layer must fail typed, not panic or smuggle a
// mid-network batch onto the ⊥ exit path).
func (a *Actor) checkLayer(layer int) error {
	if layer < 0 || layer >= a.topo.Iterations() {
		return fmt.Errorf("distributed: group %d: out-of-range layer %d", a.cfg.GID, layer)
	}
	return nil
}

// expectedSources returns how many batch messages assemble a layer.
func (a *Actor) expectedSources(layer int) int {
	if layer == 0 {
		return 1 // the coordinator's injection
	}
	return len(a.topo.Sources(layer, a.cfg.GID))
}

// destKeys resolves the layer's forwarding: destination gids and their
// public keys, or the single ⊥ destination at the exit layer.
func (a *Actor) destKeys(layer int) ([]int, []*ecc.Point) {
	dests := a.topo.Neighbors(layer, a.cfg.GID)
	if len(dests) == 0 {
		return nil, []*ecc.Point{nil}
	}
	pks := make([]*ecc.Point, len(dests))
	for i, dst := range dests {
		pks[i] = a.cfg.GroupPKs[dst]
	}
	return dests, pks
}

// handleBatch (first member only) assembles a layer's inbound batches
// and starts the shuffle chain once the last one lands.
func (a *Actor) handleBatch(ctx context.Context, round uint64, msg *transport.Message) (int, error) {
	start := time.Now()
	layer, src, workers, vecs, err := decodeBatchMsg(msg.Payload)
	codecNs := time.Since(start).Nanoseconds()
	if err != nil {
		if a.cfg.Pos == 0 && src >= 0 && src < a.topo.Groups() && msg.From == a.cfg.Entry[src] {
			// Group src's first member — and nobody else — sent this, so
			// it is blamed like the sender of any undecodable chain
			// payload. Its DVSS index is the coordinator's to resolve
			// (−1), as for an unreachable next-layer entry.
			return layer, &protocol.Blame{GID: src, Member: -1, Err: fmt.Errorf(
				"%w: group %d aborts — group %d's first member sent an undecodable batch payload: %v",
				protocol.ErrProofRejected, a.cfg.GID, src, err)}
		}
		return layer, fmt.Errorf("distributed: group %d: bad batch payload: %w", a.cfg.GID, err)
	}
	if a.cfg.Pos != 0 {
		return layer, fmt.Errorf("distributed: group %d member %d received a batch (first member's job)", a.cfg.GID, a.cfg.Pos)
	}
	if err := a.checkLayer(layer); err != nil {
		return layer, err
	}
	// Authenticate the batch's origin: the coordinator for the layer-0
	// injection, the source group's first member otherwise. Forged
	// batches are ignored — they must not corrupt assembly counting.
	if src == -1 {
		if msg.From != a.cfg.Coordinator {
			return layer, nil
		}
	} else if src < 0 || src >= a.topo.Groups() || msg.From != a.cfg.Entry[src] {
		return layer, nil
	}
	a.observeRound(round)
	byLayer := a.pending[round]
	if byLayer == nil {
		byLayer = make(map[int]*assembly)
		a.pending[round] = byLayer
	}
	asm := byLayer[layer]
	if asm == nil {
		asm = &assembly{got: make(map[int][]elgamal.Vector)}
		byLayer[layer] = asm
	}
	if _, dup := asm.got[src]; dup {
		return layer, fmt.Errorf("distributed: group %d layer %d: duplicate batch from %d", a.cfg.GID, layer, src)
	}
	a.noteProgress(round, layer, "assemble")
	asm.got[src] = vecs
	asm.codecNs += codecNs
	if workers > asm.workers {
		asm.workers = workers
	}
	if len(asm.got) < a.expectedSources(layer) {
		return layer, nil
	}
	delete(byLayer, layer)
	// Concatenate in ascending source order — the deterministic order
	// the in-process mixer uses.
	srcs := make([]int, 0, len(asm.got))
	for s := range asm.got {
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	var batch []elgamal.Vector
	for _, s := range srcs {
		batch = append(batch, asm.got[s]...)
	}
	return layer, a.runShuffle(ctx, round, layer, batch, work{Msgs: len(batch), Workers: asm.workers, CodecNs: asm.codecNs})
}

// runShuffle performs this member's shuffle of the layer and forwards
// the chain.
func (a *Actor) runShuffle(ctx context.Context, round uint64, layer int, in []elgamal.Vector, w work) error {
	if len(in) == 0 {
		// Empty layer: nothing to permute or prove anywhere in the
		// chain — pass through, exactly like the in-process group.
		_, pks := a.destKeys(layer)
		return a.finishLayer(ctx, round, layer, make([][]elgamal.Vector, len(pks)), w)
	}
	a.noteProgress(round, layer, "shuffle")
	engine, pool := a.engine(ctx, w.Workers)
	myIdx := a.cfg.Indices[a.cfg.Pos]
	out, perm, rands, err := engine.Shuffle(myIdx, in, rand.Reader)
	if err != nil {
		return err
	}
	w.Shuffles++
	if fn := a.takeTamper(round, layer); fn != nil {
		if evil := fn(out); evil != nil {
			out = evil
		}
	}
	step, err := engine.ProveStep(myIdx, in, out, perm, rands, rand.Reader)
	if err != nil {
		return err
	}
	w.BusyNs += pool.Busy().Nanoseconds()

	var proofBytes []byte
	var wireIn []elgamal.Vector
	if step.Proof != nil {
		proofBytes = step.Proof.Marshal()
		wireIn = in // only verification needs the input batch
	}
	k := len(a.cfg.Peers)
	typ, next := msgShuffle, a.cfg.Pos+1
	if a.cfg.Pos == k-1 {
		typ, next = msgDivide, 0
	}
	return a.sendChain(ctx, a.cfg.Peers[next], a.cfg.GID, a.cfg.Indices[next], &transport.Message{
		Type: typ, Round: round,
		Payload: encodeShuffleMsg(layer, w, wireIn, out, proofBytes),
	})
}

// verifyShuffleStep checks the predecessor's step in the NIZK variant.
func (a *Actor) verifyShuffleStep(ctx context.Context, senderPos, layer int, in, out []elgamal.Vector, proofBytes []byte, w *work) error {
	if a.cfg.Variant != protocol.VariantNIZK {
		return nil
	}
	engine, pool := a.engine(ctx, w.Workers)
	proof, err := nizk.UnmarshalShufProof(proofBytes)
	senderIdx := a.cfg.Indices[senderPos]
	if err != nil {
		return &protocol.Blame{GID: a.cfg.GID, Member: senderIdx, Err: fmt.Errorf(
			"%w: group %d aborts — member %d shuffle rejected: undecodable proof: %v",
			protocol.ErrProofRejected, a.cfg.GID, senderIdx, err)}
	}
	step := &protocol.ShuffleStep{Member: senderIdx, In: in, Out: out, Proof: proof}
	if err := engine.VerifyShuffle(step, pool); err != nil {
		return err
	}
	w.Proofs++
	w.BusyNs += pool.Busy().Nanoseconds()
	return nil
}

// undecodable blames the chain member at senderPos for a payload that
// does not decode. senderOK has already established that the frame came
// from that member, so an off-curve point or a mangled count is its
// doing exactly as a failing proof would be — and must cost it the same
// attribution, or one bad byte aborts rounds anonymously.
func (a *Actor) undecodable(senderPos int, what string, err error) error {
	senderIdx := a.cfg.Indices[senderPos]
	return &protocol.Blame{GID: a.cfg.GID, Member: senderIdx, Err: fmt.Errorf(
		"%w: group %d aborts — member %d sent an undecodable %s payload: %v",
		protocol.ErrProofRejected, a.cfg.GID, senderIdx, what, err)}
}

// handleShuffle verifies the predecessor's shuffle and adds this
// member's own.
func (a *Actor) handleShuffle(ctx context.Context, round uint64, msg *transport.Message) (int, error) {
	layer, w, in, out, proofBytes, err := decodeShuffleMsg(msg.Payload)
	if err != nil {
		return -1, a.undecodable(a.cfg.Pos-1, "shuffle", err)
	}
	if a.cfg.Pos == 0 {
		return layer, fmt.Errorf("distributed: group %d: shuffle message at the first member", a.cfg.GID)
	}
	a.observeRound(round)
	if err := a.checkLayer(layer); err != nil {
		return layer, err
	}
	if err := a.verifyShuffleStep(ctx, a.cfg.Pos-1, layer, in, out, proofBytes, &w); err != nil {
		return layer, err
	}
	return layer, a.runShuffle(ctx, round, layer, out, w)
}

// handleDivide (first member) closes the shuffle chain: verify the last
// member's step, divide into β batches, start the re-encryption chain.
func (a *Actor) handleDivide(ctx context.Context, round uint64, msg *transport.Message) (int, error) {
	layer, w, in, out, proofBytes, err := decodeShuffleMsg(msg.Payload)
	if err != nil {
		return -1, a.undecodable(len(a.cfg.Peers)-1, "divide", err)
	}
	if a.cfg.Pos != 0 {
		return layer, fmt.Errorf("distributed: group %d: divide message at member %d", a.cfg.GID, a.cfg.Pos)
	}
	a.observeRound(round)
	if err := a.checkLayer(layer); err != nil {
		return layer, err
	}
	if err := a.verifyShuffleStep(ctx, len(a.cfg.Peers)-1, layer, in, out, proofBytes, &w); err != nil {
		return layer, err
	}
	_, pks := a.destKeys(layer)
	return layer, a.runReEnc(ctx, round, layer, protocol.Divide(out, len(pks)), w)
}

// runReEnc performs this member's decrypt-and-reencrypt of every batch
// and forwards the chain (step K wraps to the first member).
func (a *Actor) runReEnc(ctx context.Context, round uint64, layer int, ins [][]elgamal.Vector, w work) error {
	a.noteProgress(round, layer, "reenc")
	engine, pool := a.engine(ctx, w.Workers)
	_, pks := a.destKeys(layer)
	if len(ins) != len(pks) {
		return fmt.Errorf("distributed: group %d layer %d: %d batches for %d destinations", a.cfg.GID, layer, len(ins), len(pks))
	}
	myIdx := a.cfg.Indices[a.cfg.Pos]
	myEffPub := a.cfg.EffPubs[a.cfg.Pos]
	batches := make([]reencBatch, len(ins))
	for i := range ins {
		if len(ins[i]) == 0 {
			continue
		}
		step, err := engine.ReEnc(myIdx, a.cfg.Secret, myEffPub, pks[i], ins[i], rand.Reader)
		if err != nil {
			return err
		}
		w.ReEncs += len(ins[i])
		batches[i].Out = step.Out
		if step.Proofs != nil {
			batches[i].In = step.In
			batches[i].Proofs = make([][]byte, len(step.Proofs))
			for j, p := range step.Proofs {
				batches[i].Proofs[j] = p.Marshal()
			}
		}
	}
	w.BusyNs += pool.Busy().Nanoseconds()
	k := len(a.cfg.Peers)
	next := (a.cfg.Pos + 1) % k
	return a.sendChain(ctx, a.cfg.Peers[next], a.cfg.GID, a.cfg.Indices[next], &transport.Message{
		Type: msgReEnc, Round: round,
		Payload: encodeReEncMsg(layer, w, a.cfg.Pos+1, batches),
	})
}

// handleReEnc verifies the predecessor's re-encryption steps, then
// either re-encrypts itself (mid-chain) or — at step K, back at the
// first member — clears the Y slots and forwards the finished batches.
func (a *Actor) handleReEnc(ctx context.Context, round uint64, msg *transport.Message) (int, error) {
	k := len(a.cfg.Peers)
	layer, w, step, batches, err := decodeReEncMsg(msg.Payload)
	if err != nil {
		return -1, a.undecodable((a.cfg.Pos-1+k)%k, "reenc", err)
	}
	if step < 1 || step > k || a.cfg.Pos != step%k {
		return layer, fmt.Errorf("distributed: group %d member %d: reenc step %d misrouted", a.cfg.GID, a.cfg.Pos, step)
	}
	a.observeRound(round)
	if err := a.checkLayer(layer); err != nil {
		return layer, err
	}
	_, pks := a.destKeys(layer)
	if len(batches) != len(pks) {
		return layer, fmt.Errorf("distributed: group %d layer %d: %d reenc batches for %d destinations", a.cfg.GID, layer, len(batches), len(pks))
	}
	if a.cfg.Variant == protocol.VariantNIZK {
		engine, pool := a.engine(ctx, w.Workers)
		senderIdx := a.cfg.Indices[step-1]
		senderEffPub := a.cfg.EffPubs[step-1]
		for i := range batches {
			if len(batches[i].Out) == 0 {
				continue
			}
			proofs := make([]*nizk.ReEncProof, len(batches[i].Proofs))
			for j, pb := range batches[i].Proofs {
				if proofs[j], err = nizk.UnmarshalReEncProof(pb); err != nil {
					return layer, &protocol.Blame{GID: a.cfg.GID, Member: senderIdx, Err: fmt.Errorf(
						"%w: group %d aborts — member %d reencryption rejected: undecodable proof: %v",
						protocol.ErrProofRejected, a.cfg.GID, senderIdx, err)}
				}
			}
			s := &protocol.ReEncStep{
				Member: senderIdx, EffPub: senderEffPub, DestPK: pks[i],
				In: batches[i].In, Out: batches[i].Out, Proofs: proofs,
			}
			if err := engine.VerifyReEnc(s); err != nil {
				return layer, err
			}
			w.Proofs += len(batches[i].Out)
		}
		w.BusyNs += pool.Busy().Nanoseconds()
	}
	outs := make([][]elgamal.Vector, len(batches))
	for i := range batches {
		outs[i] = batches[i].Out
	}
	if step == k {
		return layer, a.finishLayer(ctx, round, layer, outs, w)
	}
	return layer, a.runReEnc(ctx, round, layer, outs, w)
}

// finishLayer (first member) clears the Y slots and hands each finished
// batch to its next-layer group — or, at the exit layer, delivers the
// plaintext vectors to the coordinator — then reports the group's layer
// accounting.
func (a *Actor) finishLayer(ctx context.Context, round uint64, layer int, batches [][]elgamal.Vector, w work) error {
	a.noteProgress(round, layer, "forward")
	for i := range batches {
		batches[i] = protocol.ClearYBatch(batches[i])
	}
	if layer == a.topo.Iterations()-1 {
		start := time.Now()
		payload := encodeOutMsg(a.cfg.GID, batches[0])
		w.CodecNs += time.Since(start).Nanoseconds()
		if err := a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
			Type: msgOut, Round: round, Payload: payload,
		}); err != nil {
			return err
		}
	} else {
		dests, _ := a.destKeys(layer)
		if len(batches) != len(dests) {
			return fmt.Errorf("distributed: group %d layer %d: %d batches for %d destinations", a.cfg.GID, layer, len(batches), len(dests))
		}
		for i, dst := range dests {
			// A dead next-layer entry member is reported as a loss in
			// THAT group (idx −1 = its first member; the coordinator
			// resolves the identity from its own chain map).
			start := time.Now()
			payload := encodeBatchMsg(layer+1, a.cfg.GID, w.Workers, batches[i])
			w.CodecNs += time.Since(start).Nanoseconds()
			if err := a.sendChain(ctx, a.cfg.Entry[dst], dst, -1, &transport.Message{
				Type: msgBatch, Round: round, Payload: payload,
			}); err != nil {
				return err
			}
		}
	}
	return a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
		Type: msgLayer, Round: round,
		Payload: encodeLayerMsg(a.cfg.GID, layer, w),
	})
}
