// Package transport carries Atom's inter-node messages. It provides two
// interchangeable implementations of the same small interface:
//
//   - an in-memory network with an optional pairwise latency model
//     (emulating the paper's tc-injected 40–160 ms RTTs, §6) and
//     per-node traffic accounting used for the bandwidth estimates of
//     §7;
//   - a TCP transport for the distributed round engine (atomd -member
//     hosts and their coordinator): every connection opens with a
//     versioned hello naming the dialer's listen address, then carries
//     binary envelopes (u32 len ‖ uvarint len(kind) ‖ kind ‖ uvarint
//     round ‖ payload) one way. The link, not the frame, names the
//     sender: the receiver stamps From from the hello.
//
// The hello codec (hello.go) is shared with the daemon's client
// protocol, so both planes refuse a peer of another wire version the
// same way: with a typed taxonomy.ErrProtocolVersion verdict.
//
// Endpoints are liveness-aware in the sense the distributed engine
// needs: a delivery to a dead or departed node fails promptly with an
// error Unreachable classifies as a peer failure (ErrClosed,
// ErrUnknownNode, or a network-level dial/write error), distinct from
// the caller's context expiring, the message itself being oversized
// (ErrFrameTooLarge), or the peer refusing a version skew. That
// classification is what turns a crashed member into a typed
// member-lost report instead of a silent stall.
//
// The paper assumes "encrypted, authenticated, and replay-protected
// channels (e.g., TLS)" between all parties (§2.1); the in-memory
// network models such channels as reliable ordered links, and the TCP
// transport is the hook where a deployment would layer crypto/tls — the
// hello is where an authenticated identity would replace the claimed
// listen address.
package transport
