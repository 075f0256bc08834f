package daemon

import (
	"encoding/binary"
	"time"

	"atom/internal/taxonomy"
)

// The client protocol. A connection opens with internal/transport's
// hello (magic ‖ version, answered by a taxonomy verdict), then carries
// length-prefixed frames both ways. All integers except the length
// prefix are uvarints; error is internal/taxonomy's wire form (the byte
// 0 for success), so a client rebuilds exactly the typed errors the
// daemon failed with.
//
//	frame     := u32_be length ‖ type ‖ body
//	submit    := count ‖ { seq ‖ user ‖ round ‖ len ‖ wire }×count     client → daemon
//	ack       := count ‖ { seq ‖ error ‖ round }×count                  daemon → client
//	info      := seq                                                   client → daemon
//	info-rep  := seq ‖ error ‖ [ groups ‖ msgsize ‖ trap ‖ nkeys ‖ { len ‖ key }×nkeys ‖ round ‖ len ‖ trustee-key ]
//	await     := seq ‖ round                                           client → daemon
//	await-rep := seq ‖ error ‖ [ count ‖ { len ‖ msg }×count ]
//
// The bracketed part follows only a nil error. Submits are pipelined
// and acknowledged asynchronously in coalesced ack frames; info and
// await are answered by seq on the same connection, an await once its
// round publishes. An unknown type drops the connection.
const (
	typeSubmit     byte = 2
	typeInfo       byte = 3
	typeAck        byte = 4
	typeInfoReply  byte = 5
	typeAwait      byte = 6
	typeAwaitReply byte = 7

	// maxRequest caps a client frame; maxReply caps a daemon frame (an
	// await reply carries a whole round's output).
	maxRequest = 16 << 20
	maxReply   = 64 << 20
	// maxAcks caps how many verdicts one ack frame coalesces.
	maxAcks = 4096

	// The admission plane: how many submissions one flush verifies
	// together, how long a worker lingers for stragglers when a flush
	// would otherwise be small, and the queue depth at which connection
	// readers stop reading — TCP backpressure instead of unbounded
	// memory.
	admitMaxBatch   = 256
	admitLinger     = 500 * time.Microsecond
	admitQueueDepth = 8192
	// awaitBound caps how long the daemon parks one await: a bogus or
	// long-gone round id must not pin a goroutine until shutdown.
	awaitBound = 10 * time.Minute
)

// appendAcks appends an ack frame's body: the count, then each verdict.
func appendAcks(buf []byte, acks []ack) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(acks)))
	for _, a := range acks {
		buf = binary.AppendUvarint(buf, a.seq)
		buf = taxonomy.AppendError(buf, a.err)
		buf = binary.AppendUvarint(buf, a.round)
	}
	return buf
}

// parseCall decodes an info or await request body: its seq and, for an
// await, the round.
func parseCall(typ byte, body []byte) (seq, round uint64, ok bool) {
	if seq, body, ok = uvarint(body); !ok {
		return 0, 0, false
	}
	if typ == typeAwait {
		if round, body, ok = uvarint(body); !ok {
			return 0, 0, false
		}
	}
	return seq, round, len(body) == 0
}

// appendInfoReply appends an info reply's body; info is ignored when err
// is set.
func appendInfoReply(b []byte, seq uint64, info *Info, err error) []byte {
	b = binary.AppendUvarint(b, seq)
	b = taxonomy.AppendError(b, err)
	if err != nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(info.Groups))
	b = binary.AppendUvarint(b, uint64(info.MessageSize))
	trap := byte(0)
	if info.Trap {
		trap = 1
	}
	b = append(b, trap)
	b = appendBlobs(b, info.EntryKeys)
	b = binary.AppendUvarint(b, info.Round.ID)
	b = binary.AppendUvarint(b, uint64(len(info.Round.TrusteeKey)))
	return append(b, info.Round.TrusteeKey...)
}

// parseInfoReply decodes an info reply's body (daemon bytes); ok is
// false when it is malformed. Nothing returned aliases body.
func parseInfoReply(body []byte) (seq uint64, info *Info, err error, ok bool) {
	if seq, body, ok = uvarint(body); !ok {
		return
	}
	if err, body, ok = taxonomy.ReadError(body); !ok || err != nil {
		return seq, nil, err, ok && len(body) == 0
	}
	var groups, size, round uint64
	if groups, body, ok = uvarint(body); !ok || groups > maxReply {
		return seq, nil, nil, false
	}
	if size, body, ok = uvarint(body); !ok || size > maxReply || len(body) == 0 || body[0] > 1 {
		return seq, nil, nil, false
	}
	info = &Info{Groups: int(groups), MessageSize: int(size), Trap: body[0] == 1}
	if info.EntryKeys, body, ok = parseBlobs(body[1:]); !ok {
		return seq, nil, nil, false
	}
	if round, body, ok = uvarint(body); !ok {
		return seq, nil, nil, false
	}
	info.Round.ID = round
	if info.Round.TrusteeKey, ok = parseKey(body); !ok {
		return seq, nil, nil, false
	}
	return seq, info, nil, true
}

// appendAwaitReply appends an await reply's body.
func appendAwaitReply(b []byte, seq uint64, msgs [][]byte, err error) []byte {
	b = binary.AppendUvarint(b, seq)
	b = taxonomy.AppendError(b, err)
	if err != nil {
		return b
	}
	return appendBlobs(b, msgs)
}

// parseAwaitReply decodes an await reply's body (daemon bytes); ok is
// false when it is malformed. Nothing returned aliases body.
func parseAwaitReply(body []byte) (seq uint64, msgs [][]byte, err error, ok bool) {
	if seq, body, ok = uvarint(body); !ok {
		return
	}
	if err, body, ok = taxonomy.ReadError(body); !ok || err != nil {
		return seq, nil, err, ok && len(body) == 0
	}
	if msgs, body, ok = parseBlobs(body); !ok || len(body) != 0 {
		return seq, nil, nil, false
	}
	return seq, msgs, nil, true
}

// appendBlobs appends count ‖ { len ‖ blob }×count.
func appendBlobs(b []byte, blobs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blobs)))
	for _, x := range blobs {
		b = binary.AppendUvarint(b, uint64(len(x)))
		b = append(b, x...)
	}
	return b
}

// parseBlobs decodes count ‖ { len ‖ blob }×count into copies. The
// count is a peer's claim: one the body cannot hold (each blob costs at
// least its length byte) is refused, and it never pre-sizes more than
// one ack frame's worth of slice headers.
func parseBlobs(body []byte) ([][]byte, []byte, bool) {
	count, body, ok := uvarint(body)
	if !ok || count > uint64(len(body)) {
		return nil, nil, false
	}
	blobs := make([][]byte, 0, min(count, maxAcks))
	for range count {
		var n uint64
		if n, body, ok = uvarint(body); !ok || n > uint64(len(body)) {
			return nil, nil, false
		}
		blobs = append(blobs, append([]byte(nil), body[:n]...))
		body = body[n:]
	}
	return blobs, body, true
}

// parseKey decodes exactly one len ‖ key into a copy (nil when empty).
func parseKey(body []byte) ([]byte, bool) {
	n, body, ok := uvarint(body)
	if !ok || n != uint64(len(body)) {
		return nil, false
	}
	return append([]byte(nil), body...), true
}

// uvarint decodes one uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}
