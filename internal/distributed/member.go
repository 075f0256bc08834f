package distributed

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/protocol"
	"atom/internal/taxonomy"
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

// Build constructs the topology, exactly as the deployment does.
func (s TopoSpec) Build() (topology.Topology, error) {
	cfg := protocol.Config{Topology: s.Name, NumGroups: s.Groups, Iterations: s.Iterations, ButterflyReps: s.Reps}
	return cfg.BuildTopology()
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
	// file (atom.Config.Hash). A host started with its own hash
	// refuses joins carrying a different one — both parties must be
	// provisioned from the same file. Empty disables the check.
	ConfigHash []byte
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

// Actor is one member's network shell around its protocol.Seat: it
// boots unconfigured — holding an endpoint and its host's options, no
// key material — and becomes a group member by adopting a MemberConfig
// (adopt), which is also how it is re-configured after churn and how it
// resumes from disk. Beyond that it only does what a network needs:
// sender authentication, heartbeats, share requests, and the adapter
// that decodes chain messages into seat steps and encodes the seat's
// outbound steps (the Actor is the seat's SeatLink). All state is
// confined to the Serve goroutine except the tamper hook (set by the
// cluster between rounds) and the heartbeat snapshot (read by the
// heartbeat goroutine).
type Actor struct {
	ep   transport.Endpoint
	opts HostOptions
	// cfg, topo and seat are the adopted config; seat is nil until the
	// first adoption, and an unconfigured actor serves nothing but config
	// messages.
	cfg  MemberConfig
	topo topology.Topology
	seat *protocol.Seat

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

// seat validates a MemberConfig's addressing and builds the seat it
// describes, with the actor as its link and a clean per-round slate.
func (a *Actor) newSeat(cfg *MemberConfig) (*protocol.Seat, topology.Topology, error) {
	topo, err := cfg.Topo.Build()
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Peers) != len(cfg.Indices) || len(cfg.Entry) != topo.Groups() {
		return nil, nil, fmt.Errorf("distributed: member config addresses %d peers for %d indices and %d entries for G=%d",
			len(cfg.Peers), len(cfg.Indices), len(cfg.Entry), topo.Groups())
	}
	seat, err := protocol.NewSeat(protocol.SeatConfig{
		GID: cfg.GID, Pos: cfg.Pos,
		Indices: cfg.Indices, Secret: cfg.Secret, EffPubs: cfg.EffPubs,
		GroupPKs: cfg.GroupPKs, Variant: cfg.Variant, Workers: cfg.Workers, Topo: topo,
	}, a)
	if err != nil {
		return nil, nil, err
	}
	seat.Tamper = a.tamperShuffle
	seat.Progress = a.noteProgress
	return seat, topo, nil
}

// adopt is the one way a config enters a member — first config,
// re-config after churn and resume from disk alike: decode, gate on the
// host's group-config hash, validate, persist (unless the bytes came
// from the state dir already), then install a fresh seat (the
// coordinator restarts an interrupted round from its sealed batches, so
// stale assemblies must not leak into the new attempt). Any
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
	seat, topo, err := a.newSeat(cfg)
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
	a.seat = seat
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

// tamperShuffle is the seat's Tamper hook: the installed fn's
// replacement for a shuffle output of its (round, layer), else nil.
func (a *Actor) tamperShuffle(round uint64, layer int, out []elgamal.Vector) []elgamal.Vector {
	a.mu.Lock()
	h := a.tamper
	a.mu.Unlock()
	if h == nil || h.round != round || h.layer != layer {
		return nil
	}
	return h.fn(out)
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
				if a.seat == nil || msg.From == a.cfg.Coordinator {
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
	if a.beating || a.seat == nil || a.cfg.Heartbeat <= 0 {
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
	if a.seat == nil {
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
		return true // decodeBatch checks a batch's origin against its decoded src
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
		a.seat.Cancel(round)
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
	case msgBatch, msgShuffle, msgDivide, msgReEnc:
	default:
		return // not ours (coordinator traffic, unknown types)
	}
	if a.seat.Canceled(round) {
		return
	}
	st, layer, err := a.decode(msg)
	if st == nil && err == nil {
		return // a stranger's batch: dropped before it touches any state
	}
	if err == nil {
		err = a.seat.Handle(ctx, st)
	}
	if err != nil {
		a.seat.Cancel(round)
		a.abort(ctx, round, layer, err)
	}
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

// sendChain delivers one chain message. An unreachable destination is
// a member loss attributed to (gid, idx) — idx −1 for "that group's
// first member" — so the coordinator learns WHICH member is gone instead
// of receiving an opaque abort.
func (a *Actor) sendChain(ctx context.Context, to string, gid, idx int, msg *transport.Message) error {
	err := a.ep.SendCtx(ctx, to, msg)
	if err != nil && transport.Unreachable(err) {
		return &taxonomy.Loss{GID: gid, Member: idx, Err: fmt.Errorf(
			"%w: peer %s (group %d member %d) unreachable: %w", taxonomy.ErrMemberLost, to, gid, idx, err)}
	}
	return err
}

// abort reports a member failure to the coordinator.
func (a *Actor) abort(ctx context.Context, round uint64, layer int, err error) {
	_ = a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
		Type: msgAbort, Round: round, Payload: encodeAbortMsg(layer, err),
	})
}

// decode turns a chain message into the seat step it carries, or
// attributes the failure. senderOK has already tied a shuffle, divide or
// reenc frame to the one member entitled to send it; a batch's origin is
// checked here, against the source it names, before anything else — a
// batch from anyone else is dropped silently (nil step, nil error), so
// one stranger's frame can neither abort nor blacklist a round. layer is
// the message's layer as far as it decoded (−1 otherwise).
func (a *Actor) decode(msg *transport.Message) (st *protocol.Step, layer int, err error) {
	k := len(a.cfg.Peers)
	switch msg.Type {
	case msgBatch:
		return a.decodeBatch(msg)
	case msgShuffle, msgDivide:
		kind, sender, what := protocol.StepShuffle, a.cfg.Pos-1, "shuffle"
		if msg.Type == msgDivide {
			kind, sender, what = protocol.StepDivide, k-1, "divide"
		}
		layer, w, in, out, proofBytes, err := decodeShuffleMsg(msg.Payload)
		if err != nil {
			return nil, -1, a.blameSender(sender, what+" payload", err)
		}
		st = &protocol.Step{Kind: kind, Round: msg.Round, Layer: layer, In: in, Out: out, Work: w}
		if a.cfg.Variant == protocol.VariantNIZK {
			if st.Proof, err = nizk.UnmarshalShufProof(proofBytes); err != nil {
				return nil, layer, a.blameSender(sender, "shuffle proof", err)
			}
		}
		return st, layer, nil
	default: // msgReEnc
		sender := (a.cfg.Pos - 1 + k) % k
		layer, w, seq, batches, err := decodeReEncMsg(msg.Payload)
		if err != nil {
			return nil, -1, a.blameSender(sender, "reenc payload", err)
		}
		st = &protocol.Step{Kind: protocol.StepReEnc, Round: msg.Round, Layer: layer, Seq: seq, Work: w,
			Batches: make([]protocol.ReEncBatch, len(batches))}
		for i, rb := range batches {
			st.Batches[i] = protocol.ReEncBatch{In: rb.In, Out: rb.Out}
			if a.cfg.Variant != protocol.VariantNIZK || len(rb.Out) == 0 {
				continue
			}
			proofs := make([]*nizk.ReEncProof, len(rb.Proofs))
			for j, pb := range rb.Proofs {
				if proofs[j], err = nizk.UnmarshalReEncProof(pb); err != nil {
					return nil, layer, a.blameSender(sender, "reencryption proof", err)
				}
			}
			st.Batches[i].Proofs = proofs
		}
		return st, layer, nil
	}
}

// decodeBatch authenticates and decodes a batch. Its legitimate origin
// is the coordinator for the layer-0 injection (src −1) and group src's
// first member otherwise; anything else is a stranger's frame and is
// dropped. From group src's first member, a batch that does not decode,
// reached a member other than this group's first, or names an
// out-of-range layer is that member's doing: it is blamed like the
// sender of any undecodable chain payload, with its DVSS index left for
// the coordinator to resolve (−1), as for an unreachable next-layer
// entry.
func (a *Actor) decodeBatch(msg *transport.Message) (*protocol.Step, int, error) {
	start := time.Now()
	layer, src, workers, vecs, err := decodeBatchMsg(msg.Payload)
	codecNs := time.Since(start).Nanoseconds()
	switch {
	case src == -1 && msg.From == a.cfg.Coordinator:
		if err != nil {
			return nil, layer, fmt.Errorf("distributed: group %d: bad batch payload: %w", a.cfg.GID, err)
		}
	case src >= 0 && src < a.topo.Groups() && msg.From == a.cfg.Entry[src]:
		if err == nil && a.cfg.Pos != 0 {
			err = fmt.Errorf("batch reached member %d, not the first", a.cfg.Pos)
		}
		if err == nil && (layer < 0 || layer >= a.topo.Iterations()) {
			err = fmt.Errorf("out-of-range layer %d", layer)
		}
		if err != nil {
			return nil, layer, &taxonomy.Blame{GID: src, Member: -1, Err: fmt.Errorf(
				"%w: group %d aborts — group %d's first member sent a bad batch: %v",
				taxonomy.ErrProofRejected, a.cfg.GID, src, err)}
		}
	default:
		return nil, layer, nil
	}
	return &protocol.Step{
		Kind: protocol.StepBatch, Round: msg.Round, Layer: layer, Src: src, Workers: workers, Vecs: vecs,
		Work: protocol.LayerWork{CodecNs: codecNs},
	}, layer, nil
}

// blameSender blames the chain member at senderPos for a payload or
// proof that does not decode. senderOK has already established that the
// frame came from that member, so an off-curve point or a mangled count
// is its doing exactly as a failing proof would be — and must cost it the
// same attribution, or one bad byte aborts rounds anonymously.
func (a *Actor) blameSender(senderPos int, what string, err error) error {
	senderIdx := a.cfg.Indices[senderPos]
	return &taxonomy.Blame{GID: a.cfg.GID, Member: senderIdx, Err: fmt.Errorf(
		"%w: group %d aborts — member %d sent an undecodable %s: %v",
		taxonomy.ErrProofRejected, a.cfg.GID, senderIdx, what, err)}
}

// Chain implements protocol.SeatLink: encode the step with the hop codec
// and send it to chain position pos. Only verification needs a step's
// input batch, so it travels with proofs only.
func (a *Actor) Chain(ctx context.Context, pos int, st *protocol.Step) error {
	msg := &transport.Message{Round: st.Round}
	switch st.Kind {
	case protocol.StepShuffle, protocol.StepDivide:
		msg.Type = msgShuffle
		if st.Kind == protocol.StepDivide {
			msg.Type = msgDivide
		}
		var in []elgamal.Vector
		var proofBytes []byte
		if st.Proof != nil {
			in, proofBytes = st.In, st.Proof.Marshal()
		}
		msg.Payload = encodeShuffleMsg(st.Layer, st.Work, in, st.Out, proofBytes)
	case protocol.StepReEnc:
		msg.Type = msgReEnc
		batches := make([]reencBatch, len(st.Batches))
		for i, b := range st.Batches {
			batches[i].Out = b.Out
			if b.Proofs != nil {
				batches[i].In = b.In
				batches[i].Proofs = make([][]byte, len(b.Proofs))
				for j, p := range b.Proofs {
					batches[i].Proofs[j] = p.Marshal()
				}
			}
		}
		msg.Payload = encodeReEncMsg(st.Layer, st.Work, st.Seq, batches)
	default:
		return fmt.Errorf("distributed: group %d: step kind %d does not travel the chain", a.cfg.GID, st.Kind)
	}
	return a.sendChain(ctx, a.cfg.Peers[pos], a.cfg.GID, a.cfg.Indices[pos], msg)
}

// Finish implements protocol.SeatLink: hand each finished batch to its
// next-layer group's first member — or, at the exit layer, the plaintext
// vectors to the coordinator — then report the layer, with the time spent
// encoding those batches charged to its work.
func (a *Actor) Finish(ctx context.Context, round uint64, layer int, dests []int, batches [][]elgamal.Vector, w protocol.LayerWork) error {
	if dests == nil {
		start := time.Now()
		payload := encodeOutMsg(a.cfg.GID, batches[0])
		w.CodecNs += time.Since(start).Nanoseconds()
		if err := a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
			Type: msgOut, Round: round, Payload: payload,
		}); err != nil {
			return err
		}
	}
	for i, dst := range dests {
		// A dead next-layer entry member is reported as a loss in THAT
		// group (idx −1 = its first member; the coordinator resolves the
		// identity from its own chain map).
		start := time.Now()
		payload := encodeBatchMsg(layer+1, a.cfg.GID, w.Workers, batches[i])
		w.CodecNs += time.Since(start).Nanoseconds()
		if err := a.sendChain(ctx, a.cfg.Entry[dst], dst, -1, &transport.Message{
			Type: msgBatch, Round: round, Payload: payload,
		}); err != nil {
			return err
		}
	}
	return a.ep.SendCtx(ctx, a.cfg.Coordinator, &transport.Message{
		Type: msgLayer, Round: round,
		Payload: encodeLayerMsg(a.cfg.GID, layer, w),
	})
}
