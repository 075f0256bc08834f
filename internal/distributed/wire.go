package distributed

import (
	"fmt"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/wirecodec"
)

// Message types of the distributed round protocol. Every message's
// transport.Message.Round field carries the round id, so actors and the
// coordinator can discard strays from canceled rounds.
const (
	// msgBatch carries one group-bound batch of ciphertext vectors: the
	// coordinator's layer-0 injection, or a group's layer-t output
	// arriving at a next-layer group's first member.
	msgBatch = "dist/batch"
	// msgShuffle moves the shuffle chain one member forward: the
	// sender's shuffle step (input, output, proof) for the receiver to
	// verify before shuffling the output itself.
	msgShuffle = "dist/shuffle"
	// msgDivide closes the shuffle chain: the last member's shuffle step
	// goes back to the first member, which verifies it, divides the
	// output into β batches, and starts the re-encryption chain.
	msgDivide = "dist/divide"
	// msgReEnc moves the re-encryption chain one member forward: the
	// sender's β re-encryptions for the receiver to verify and build on.
	// Step K (one past the last member) returns to the first member,
	// which verifies, clears the Y slots and forwards the batches.
	msgReEnc = "dist/reenc"
	// msgLayer reports one group's completed iteration (message count
	// and work totals) to the coordinator.
	msgLayer = "dist/layer"
	// msgOut delivers an exit group's plaintext vectors to the
	// coordinator.
	msgOut = "dist/out"
	// msgAbort reports a member failure (typed: class + attribution) to
	// the coordinator.
	msgAbort = "dist/abort"
	// msgCancel tells actors to drop all state and traffic of a round.
	msgCancel = "dist/cancel"
	// msgStop shuts an actor down.
	msgStop = "dist/stop"
	// msgConfig carries a MemberConfig to a member host — its first
	// config, or an in-place re-config after churn (fresh chain, entry
	// table and Lagrange-weighted secret; adopting it resets the member's
	// per-round state). msgConfigAck answers every one with a typed
	// verdict (configAck); a resumed host also sends one unsolicited, as
	// its rejoin greeting.
	msgConfig    = "dist/join"
	msgConfigAck = "dist/joined"
	// msgHeartbeat is a member's periodic liveness beacon to the
	// coordinator, carrying its last-known mixing progress so an
	// eventual round timeout is diagnosable per member.
	msgHeartbeat = "dist/heartbeat"
	// msgShareReq solicits a buddy-group member's escrow piece for one
	// failed position (§4.5 recovery over the wire); msgShareResp
	// returns it.
	msgShareReq  = "dist/sharereq"
	msgShareResp = "dist/shareresp"
)

// Abort classes, mapped back onto the protocol error taxonomy by the
// coordinator (classifyAbort) so errors.Is behaves identically to the
// in-process path.
const (
	abortProof    = "proof"    // a NIZK step was rejected → ErrProofRejected
	abortCanceled = "canceled" // the actor's context expired → ctx error
	abortPeer     = "peer"     // a chain delivery failed → member lost, coordinator re-plans
	abortInternal = "internal" // anything else
)

// encWork writes a group's layer accounting, the record that rides the
// shuffle and reenc chain and the layer report.
func encWork(e *wirecodec.Enc, w protocol.LayerWork) {
	e.I(w.Msgs)
	e.I(w.Workers)
	e.I(w.Shuffles)
	e.I(w.ReEncs)
	e.I(w.Proofs)
	e.U64(uint64(w.BusyNs))
	e.U64(uint64(w.CodecNs))
}

func decWork(d *wirecodec.Dec) (protocol.LayerWork, error) {
	var w protocol.LayerWork
	var err error
	if w.Msgs, err = d.I(); err != nil {
		return w, err
	}
	if w.Workers, err = d.I(); err != nil {
		return w, err
	}
	if w.Shuffles, err = d.I(); err != nil {
		return w, err
	}
	if w.ReEncs, err = d.I(); err != nil {
		return w, err
	}
	if w.Proofs, err = d.I(); err != nil {
		return w, err
	}
	busy, err := d.U64()
	if err != nil {
		return w, err
	}
	w.BusyNs = int64(busy)
	codec, err := d.U64()
	if err != nil {
		return w, err
	}
	w.CodecNs = int64(codec)
	return w, nil
}

// ---------------------------------------------------------------------
// Per-message payloads (shared wirecodec: uvarint counts, presence
// flags, bounds checks before every allocation).
//
// Ciphertext vectors inside the five chain messages (batch, shuffle,
// divide, reenc, out) travel in wirecodec's hop layout: points
// uncompressed, every one range- and curve-checked by the receiver, a
// message's batch decoded into slabs. The messages that carry a work
// record put it last, so the encoder can charge its own time to
// LayerWork.CodecNs before writing it; the decoders charge theirs on the
// way out.

// batchMsg: layer, source gid (−1 = coordinator), the round's worker
// knob, vectors.
func encodeBatchMsg(layer, src, workers int, vecs []elgamal.Vector) []byte {
	var e wirecodec.Enc
	e.I(layer)
	e.I(src)
	e.I(workers)
	e.HopVectors(vecs)
	return e.Out()
}

// decodeBatchMsg returns layer and src as far as they decoded (−1
// otherwise) even on error, so a receiver can still say whose batch
// failed to decode.
func decodeBatchMsg(b []byte) (layer, src, workers int, vecs []elgamal.Vector, err error) {
	d := wirecodec.NewDec(b)
	if layer, err = d.I(); err != nil {
		return -1, -1, 0, nil, err
	}
	if src, err = d.I(); err != nil {
		return layer, -1, 0, nil, err
	}
	if workers, err = d.I(); err != nil {
		return
	}
	if vecs, err = d.HopVectors(); err != nil {
		return
	}
	err = d.Done()
	return
}

// shuffleMsg (also divideMsg): layer, the sender's shuffle step,
// accumulated work. In the trap variant the proof (and the input batch,
// which only verification needs) are omitted.
func encodeShuffleMsg(layer int, w protocol.LayerWork, in, out []elgamal.Vector, proofBytes []byte) []byte {
	start := time.Now()
	var e wirecodec.Enc
	e.I(layer)
	e.HopVectors(in)
	e.HopVectors(out)
	e.Bytes(proofBytes)
	w.CodecNs += time.Since(start).Nanoseconds()
	encWork(&e, w)
	return e.Out()
}

func decodeShuffleMsg(b []byte) (layer int, w protocol.LayerWork, in, out []elgamal.Vector, proofBytes []byte, err error) {
	start := time.Now()
	d := wirecodec.NewDec(b)
	if layer, err = d.I(); err != nil {
		return
	}
	if in, err = d.HopVectors(); err != nil {
		return
	}
	if out, err = d.HopVectors(); err != nil {
		return
	}
	if proofBytes, err = d.Bytes(); err != nil {
		return
	}
	if w, err = decWork(d); err != nil {
		return
	}
	err = d.Done()
	w.CodecNs += time.Since(start).Nanoseconds()
	return
}

// reencBatch is one batch's worth of a member's re-encryption step on
// the wire.
type reencBatch struct {
	In, Out []elgamal.Vector
	Proofs  [][]byte // per-vector ReEncProof encodings (empty in trap)
}

// reencMsg: layer, step (receiver position; K wraps to the first member
// for final verification), the sender's β per-batch steps, work.
func encodeReEncMsg(layer int, w protocol.LayerWork, step int, batches []reencBatch) []byte {
	start := time.Now()
	var e wirecodec.Enc
	e.I(layer)
	e.I(step)
	e.U64(uint64(len(batches)))
	for _, rb := range batches {
		e.HopVectors(rb.In)
		e.HopVectors(rb.Out)
		e.U64(uint64(len(rb.Proofs)))
		for _, p := range rb.Proofs {
			e.Bytes(p)
		}
	}
	w.CodecNs += time.Since(start).Nanoseconds()
	encWork(&e, w)
	return e.Out()
}

func decodeReEncMsg(b []byte) (layer int, w protocol.LayerWork, step int, batches []reencBatch, err error) {
	start := time.Now()
	d := wirecodec.NewDec(b)
	if layer, err = d.I(); err != nil {
		return
	}
	if step, err = d.I(); err != nil {
		return
	}
	var n int
	if n, err = d.Count(); err != nil {
		return
	}
	batches = make([]reencBatch, n)
	for i := range batches {
		if batches[i].In, err = d.HopVectors(); err != nil {
			return
		}
		if batches[i].Out, err = d.HopVectors(); err != nil {
			return
		}
		var np int
		if np, err = d.Count(); err != nil {
			return
		}
		batches[i].Proofs = make([][]byte, np)
		for j := range batches[i].Proofs {
			if batches[i].Proofs[j], err = d.Bytes(); err != nil {
				return
			}
		}
	}
	if w, err = decWork(d); err != nil {
		return
	}
	err = d.Done()
	w.CodecNs += time.Since(start).Nanoseconds()
	return
}

// layerMsg: gid, layer, the group's accumulated work for the layer.
func encodeLayerMsg(gid, layer int, w protocol.LayerWork) []byte {
	var e wirecodec.Enc
	e.I(gid)
	e.I(layer)
	encWork(&e, w)
	return e.Out()
}

func decodeLayerMsg(b []byte) (gid, layer int, w protocol.LayerWork, err error) {
	d := wirecodec.NewDec(b)
	if gid, err = d.I(); err != nil {
		return
	}
	if layer, err = d.I(); err != nil {
		return
	}
	if w, err = decWork(d); err != nil {
		return
	}
	err = d.Done()
	return
}

// outMsg: gid, the exit group's plaintext vectors.
func encodeOutMsg(gid int, vecs []elgamal.Vector) []byte {
	var e wirecodec.Enc
	e.I(gid)
	e.HopVectors(vecs)
	return e.Out()
}

func decodeOutMsg(b []byte) (gid int, vecs []elgamal.Vector, err error) {
	d := wirecodec.NewDec(b)
	if gid, err = d.I(); err != nil {
		return
	}
	if vecs, err = d.HopVectors(); err != nil {
		return
	}
	err = d.Done()
	return
}

// abortMsg: layer, gid, member (DVSS index; −1 when not attributable),
// class, text.
func encodeAbortMsg(layer, gid, member int, class, text string) []byte {
	var e wirecodec.Enc
	e.I(layer)
	e.I(gid)
	e.I(member)
	e.Str(class)
	e.Str(text)
	return e.Out()
}

func decodeAbortMsg(b []byte) (layer, gid, member int, class, text string, err error) {
	d := wirecodec.NewDec(b)
	if layer, err = d.I(); err != nil {
		return
	}
	if gid, err = d.I(); err != nil {
		return
	}
	if member, err = d.I(); err != nil {
		return
	}
	if class, err = d.Str(); err != nil {
		return
	}
	if text, err = d.Str(); err != nil {
		return
	}
	err = d.Done()
	return
}

// heartbeatMsg: gid, member (DVSS index), the member's last-known
// progress (round, layer, phase) and how it is configured to beat.
func encodeHeartbeatMsg(gid, member int, round uint64, layer int, phase string) []byte {
	var e wirecodec.Enc
	e.I(gid)
	e.I(member)
	e.U64(round)
	e.I(layer)
	e.Str(phase)
	return e.Out()
}

func decodeHeartbeatMsg(b []byte) (gid, member int, round uint64, layer int, phase string, err error) {
	d := wirecodec.NewDec(b)
	if gid, err = d.I(); err != nil {
		return
	}
	if member, err = d.I(); err != nil {
		return
	}
	if round, err = d.U64(); err != nil {
		return
	}
	if layer, err = d.I(); err != nil {
		return
	}
	if phase, err = d.Str(); err != nil {
		return
	}
	err = d.Done()
	return
}

// shareReqMsg: the failed member's group and position whose escrowed
// share the coordinator is soliciting.
func encodeShareReqMsg(gid, pos int) []byte {
	var e wirecodec.Enc
	e.I(gid)
	e.I(pos)
	return e.Out()
}

func decodeShareReqMsg(b []byte) (gid, pos int, err error) {
	d := wirecodec.NewDec(b)
	if gid, err = d.I(); err != nil {
		return
	}
	if pos, err = d.I(); err != nil {
		return
	}
	err = d.Done()
	return
}

// shareRespMsg: the solicited (gid, pos), the responding buddy member's
// DVSS index within its own group, and its escrow piece.
func encodeShareRespMsg(gid, pos, idx int, piece *ecc.Scalar) []byte {
	var e wirecodec.Enc
	e.I(gid)
	e.I(pos)
	e.I(idx)
	e.Scalar(piece)
	return e.Out()
}

func decodeShareRespMsg(b []byte) (gid, pos, idx int, piece *ecc.Scalar, err error) {
	d := wirecodec.NewDec(b)
	if gid, err = d.I(); err != nil {
		return
	}
	if pos, err = d.I(); err != nil {
		return
	}
	if idx, err = d.I(); err != nil {
		return
	}
	if piece, err = d.Scalar(); err != nil {
		return
	}
	err = d.Done()
	return
}

// ---------------------------------------------------------------------
// MemberConfig wire form (the msgConfig payload, and what a -state-dir
// member persists).

// Marshal encodes the config, including the member's secret: the config
// channel stands in for the out-of-band provisioning (or a networked
// DKG) a production deployment would use, and must itself be protected
// like one (TLS per §2.1).
func (c *MemberConfig) Marshal() []byte {
	var e wirecodec.Enc
	e.I(c.GID)
	e.I(c.Pos)
	e.Ints(c.Indices)
	e.Scalar(c.Secret)
	e.Points(c.EffPubs)
	e.Point(c.GroupPK)
	e.Points(c.GroupPKs)
	e.Strs(c.Peers)
	e.Strs(c.Entry)
	e.Str(c.Coordinator)
	e.I(int(c.Variant))
	e.I(c.Workers)
	e.Str(c.Topo.Name)
	e.I(c.Topo.Groups)
	e.I(c.Topo.Iterations)
	e.I(c.Topo.Reps)
	e.U64(uint64(c.Heartbeat))
	e.U64(uint64(len(c.Escrows)))
	for _, esc := range c.Escrows {
		e.I(esc.GID)
		e.I(esc.Pos)
		e.Scalar(esc.Piece)
	}
	e.Bytes(c.ConfigHash)
	return e.Out()
}

// UnmarshalMemberConfig decodes a MemberConfig.
func UnmarshalMemberConfig(b []byte) (*MemberConfig, error) {
	d := wirecodec.NewDec(b)
	c := &MemberConfig{}
	var err error
	var v int
	if c.GID, err = d.I(); err != nil {
		return nil, err
	}
	if c.Pos, err = d.I(); err != nil {
		return nil, err
	}
	if c.Indices, err = d.Ints(); err != nil {
		return nil, err
	}
	if c.Secret, err = d.Scalar(); err != nil {
		return nil, err
	}
	if c.EffPubs, err = d.Points(); err != nil {
		return nil, err
	}
	if c.GroupPK, err = d.Point(); err != nil {
		return nil, err
	}
	if c.GroupPKs, err = d.Points(); err != nil {
		return nil, err
	}
	if c.Peers, err = d.Strs(); err != nil {
		return nil, err
	}
	if c.Entry, err = d.Strs(); err != nil {
		return nil, err
	}
	if c.Coordinator, err = d.Str(); err != nil {
		return nil, err
	}
	if v, err = d.I(); err != nil {
		return nil, err
	}
	c.Variant = protocol.Variant(v)
	if c.Workers, err = d.I(); err != nil {
		return nil, err
	}
	if c.Topo.Name, err = d.Str(); err != nil {
		return nil, err
	}
	if c.Topo.Groups, err = d.I(); err != nil {
		return nil, err
	}
	if c.Topo.Iterations, err = d.I(); err != nil {
		return nil, err
	}
	if c.Topo.Reps, err = d.I(); err != nil {
		return nil, err
	}
	hb, err := d.U64()
	if err != nil {
		return nil, err
	}
	c.Heartbeat = time.Duration(hb)
	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	c.Escrows = make([]protocol.EscrowPiece, n)
	for i := range c.Escrows {
		if c.Escrows[i].GID, err = d.I(); err != nil {
			return nil, err
		}
		if c.Escrows[i].Pos, err = d.I(); err != nil {
			return nil, err
		}
		if c.Escrows[i].Piece, err = d.Scalar(); err != nil {
			return nil, err
		}
	}
	if c.ConfigHash, err = d.Bytes(); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// ---------------------------------------------------------------------
// msgConfigAck payload: a verdict code and the host's durable flag.

// ackCode is a member host's verdict on a config message.
type ackCode byte

const (
	ackAccepted      ackCode = iota + 1 // adopted (and persisted, on a durable host)
	ackRejoin                           // unsolicited: resumed from persisted state
	ackHashMismatch                     // provisioned from a different group-config file
	ackPersistFailed                    // the host could not make the config durable
	ackBadConfig                        // undecodable or inconsistent config
)

func (c ackCode) String() string {
	switch c {
	case ackAccepted:
		return "accepted"
	case ackRejoin:
		return "rejoin"
	case ackHashMismatch:
		return "group-config hash mismatch"
	case ackPersistFailed:
		return "state persistence failed"
	default:
		return "bad config"
	}
}

// encodeConfigAck encodes a verdict. durable says the host persists
// every config it accepts (HostOptions.OnConfig), so a crash of it may be
// a restart with state intact rather than a loss.
func encodeConfigAck(code ackCode, durable bool) []byte {
	b := []byte{byte(code), 0}
	if durable {
		b[1] = 1
	}
	return b
}

func decodeConfigAck(b []byte) (code ackCode, durable bool, err error) {
	if len(b) != 2 || b[0] < byte(ackAccepted) || b[0] > byte(ackBadConfig) || b[1] > 1 {
		return 0, false, fmt.Errorf("distributed: malformed config ack %x", b)
	}
	return ackCode(b[0]), b[1] == 1, nil
}
