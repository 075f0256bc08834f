// Package distributed executes the complete Atom round — every group,
// all T mixing iterations of the permutation network, trap/exit
// handling and NIZK verification — as a true message-passing protocol:
// each group member is an independent actor owning only its own key
// share, exchanging framed batches over a transport.Endpoint. The same
// round runs unchanged over the in-memory network (with or without a
// WAN latency model) or over real TCP sockets, and produces exactly the
// plaintext set (and exactly the error taxonomy) of the in-process
// protocol.Deployment, because it is the same round engine: each actor
// hosts one protocol.Seat, the state machine the in-process driver runs
// over a by-reference link. The actor is the seat's network shell —
// config adoption, sender authentication, heartbeats and share
// requests — plus a thin adapter that decodes chain messages into seat
// steps and encodes the seat's outbound steps.
//
// # Chain protocol
//
// One message per seat step (the protocol.Seat doc has the per-layer
// sequence): dist/batch carries a layer's inbound batch to a group's
// first member, from the coordinator at layer 0 or a previous-layer
// group after; dist/shuffle and dist/divide carry a shuffle step to the
// next member or back to the first; dist/reenc carries a re-encryption
// step, step K wrapping to the first member. The first member ends each
// layer with a dist/layer report to the coordinator, preceded at the
// exit layer by dist/out with the plaintext vectors.
//
// # Hop encoding
//
// The ciphertext vectors inside the five chain messages (batch,
// shuffle, divide, reenc, out) travel in wirecodec's hop layout, not the
// canonical compressed one: a shape header (vector count, per-vector
// component count and one Y-present flag per component) followed by one
// block of SEC1-uncompressed points, 0x04‖x‖y or 0x00 for the identity.
// The receiver checks every point — both coordinates below p, and the
// curve equation — before any arithmetic can reach it, and decodes a
// message's batch into one slab each of points, ciphertexts and
// pointers. That replaces a square root per point with a handful of
// field multiplications, which is what lets a seat mix over the wire at
// its in-process speed; it costs 32 more bytes per point on the
// link. There is no negotiation and no fallback: chain messages have
// exactly this encoding, and nothing else does — configs, acks,
// persisted MemberConfigs, the journal and proofs stay on the compressed
// form (docs/ARCHITECTURE.md, "Why the encodings are frozen").
//
// A chain payload that fails to decode is attributed, not just refused:
// senderOK has already tied the frame to the one member entitled to send
// it, so the receiver aborts with a *protocol.Blame on that member —
// the same ErrProofRejected path an undecodable or failing proof takes.
// A batch names its source, so its origin is checked first: a stranger's
// batch is dropped before it touches any state, and only a batch from
// its origin can abort (and blame that origin). The time members spend
// in this codec rides the chain in the work record (LayerWork.CodecNs)
// and comes out as StepTrace.Codec / IterationStats.Codec.
//
// # Member lifecycle
//
// Every member — attached locally by the Cluster, started remotely as
// `atomd -member`, or resumed from a state dir — comes to life the same
// way: HostMember boots an Actor holding an endpoint and no config, and
// the actor becomes a group member by adopting a MemberConfig (decode →
// group-config hash gate → consistency check → persist → install). The
// coordinator sends every chain member the same config message and
// awaits the same typed ack, at setup and after every re-plan; an
// unconfigured actor takes the first valid config, a configured one only
// its coordinator's. A resumed host adopts its persisted bytes through
// the same gate at boot and greets the coordinator with a rejoin.
//
// # Churn tolerance (§4.5)
//
// The engine treats member failure as a first-class protocol event,
// with three layers of defense:
//
//   - Detection. Every actor heartbeats the coordinator
//     (Options.Heartbeat) with its last-known mixing position; the
//     Cluster's liveness tracker declares a member lost after
//     Options.LivenessTimeout of silence. A failed chain delivery
//     (transport.Unreachable) short-circuits that wait: the sending
//     member reports exactly which peer it could not reach. Losses are
//     typed — errors.Is(err, protocol.ErrMemberLost), with the member
//     attributed via *protocol.Loss — and are distinct from byzantine
//     blame (ErrProofRejected) and from caller cancellation.
//
//   - Degraded-mode re-planning. A group of k members mixes with a
//     chain of threshold = k−(h−1); the other h−1 are spares. When a
//     chain member is lost mid-round (or between rounds), the
//     coordinator marks it failed, recomputes every affected group's
//     active set (the same protocol.GroupState logic the in-process
//     path uses), re-provisions the fleet — spares get hosts, and every
//     chain member is sent a config with the new chain order, entry
//     table and Lagrange-weighted effective secrets — and restarts the
//     round from its sealed batches. StepTraces and IterationStats
//     record the reduced live membership. A silent member whose acks
//     said it persists its config is first given 30 s to come back: a
//     restart with state intact replays the attempt over the unchanged
//     fleet and spends no budget.
//
//   - Wire recovery. Once a group drops below threshold the round
//     fails typed (ErrMemberLost + ErrRecoveryNeeded) and
//     Cluster.RecoverGroup drives §4.5 buddy-group recovery over the
//     transport: escrow pieces are solicited from a live buddy group's
//     actors (msgShareReq/msgShareResp), the lost share is
//     reconstructed and verified against the group's public Feldman
//     commitments, the replacement member boots and is configured like
//     any other, and the next round delivers.
//
// A round that stalls without any of these firing (e.g. heartbeats
// disabled) ends in a *TimeoutError carrying every member's last-known
// progress, so the straggler is identifiable from the error alone.
package distributed
