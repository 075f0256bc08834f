package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPNode is a TCP-backed Endpoint for real multi-process deployments
// (cmd/atomd). Peers are addressed by "host:port"; connections are
// dialed lazily, open with the hello (hello.go) that names the dialer's
// listen address, and are kept open. Each connection carries frames one
// way, dialer to acceptor, in a binary envelope:
//
//	frame := u32_be len ‖ uvarint len(kind) ‖ kind ‖ uvarint round ‖ payload
//
// with no From and no To: the receiver stamps From with the address its
// connection's hello named and To with its own. A production deployment
// would wrap the connections in crypto/tls with pinned certificates to
// realize the authenticated channels of §2.1; the hello is then where
// the authenticated identity replaces the claimed address.
type TCPNode struct {
	addr     string
	listener net.Listener
	inbox    chan *Message
	// done closes with the node, releasing readers blocked on a full
	// inbox.
	done     chan struct{}
	maxFrame int64

	mu      sync.Mutex
	conns   map[string]*tcpConn // outbound, keyed by peer address
	inbound map[net.Conn]bool   // accepted connections, for Close
	closed  bool
	wg      sync.WaitGroup
}

// tcpConn pairs an outbound connection with a write mutex: concurrent
// Sends to one peer must not interleave their length-prefixed frames on
// the shared connection. dlmu/seq/writing guard the cancellation
// watcher: a late-firing watcher may only expire the write deadline
// while its own send is still the one in flight.
type tcpConn struct {
	conn net.Conn
	wmu  sync.Mutex

	dlmu    sync.Mutex
	seq     uint64
	writing bool
}

// maxFrame bounds a frame to 64 MiB, stopping a malformed (or hostile)
// length prefix from allocating unbounded memory — a 4-byte prefix can
// claim up to 4 GiB. Oversized frames fail with ErrFrameTooLarge; on
// read the connection is dropped before the claimed length is
// allocated.
const maxFrame = 64 << 20

// ListenTCP starts a TCP endpoint on addr ("host:port", ":0" for an
// ephemeral port) whose inbox holds buffer messages (default 1024).
func ListenTCP(addr string, buffer int) (*TCPNode, error) {
	if buffer <= 0 {
		buffer = 1024
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		addr:     l.Addr().String(),
		listener: l,
		inbox:    make(chan *Message, buffer),
		done:     make(chan struct{}),
		maxFrame: maxFrame,
		conns:    make(map[string]*tcpConn),
		inbound:  make(map[net.Conn]bool),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr implements Endpoint. It returns the bound listen address.
func (n *TCPNode) Addr() string { return n.addr }

// Inbox implements Endpoint.
func (n *TCPNode) Inbox() <-chan *Message { return n.inbox }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.mu.Lock()
				delete(n.inbound, conn)
				n.mu.Unlock()
			}()
			if from, err := AcceptHello(conn, true); err == nil {
				n.readLoop(conn, from)
			}
		}()
	}
}

// readLoop delivers one connection's frames, stamped with the sender its
// hello named, until the connection fails or the node closes.
func (n *TCPNode) readLoop(conn net.Conn, from string) {
	for {
		msg, err := readFrame(conn, n.maxFrame)
		if err != nil {
			return
		}
		msg.From, msg.To = from, n.addr
		select {
		case n.inbox <- msg:
		case <-n.done:
			return
		}
	}
}

// Send implements Endpoint: it dials (or reuses) a connection to the
// peer address and writes one frame. Safe for concurrent use: frames
// to the same peer are serialized on the connection's write mutex.
func (n *TCPNode) Send(to string, msg *Message) error {
	return n.SendCtx(context.Background(), to, msg)
}

// SendCtx implements Endpoint: Send with the dial and the frame write
// bounded by the context's deadline.
func (n *TCPNode) SendCtx(ctx context.Context, to string, msg *Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	tc, ok := n.conns[to]
	n.mu.Unlock()
	if !ok {
		conn, err := DialHello(ctx, to, n.addr)
		if err != nil {
			return err
		}
		tc = &tcpConn{conn: conn}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		if existing, race := n.conns[to]; race {
			conn.Close()
			tc = existing
		} else {
			n.conns[to] = tc
			n.wg.Add(1)
			go n.watchStale(to, tc)
		}
		n.mu.Unlock()
	}
	tc.wmu.Lock()
	if deadline, ok := ctx.Deadline(); ok {
		_ = tc.conn.SetWriteDeadline(deadline)
	} else {
		_ = tc.conn.SetWriteDeadline(time.Time{})
	}
	// A deadline-less context can still be canceled mid-write (a full
	// peer receive buffer blocks Write indefinitely): a watcher forces
	// the blocked write to fail by expiring the write deadline. The
	// per-send deadline reset above clears it for the next frame, and
	// the seq/writing guard keeps a late-firing watcher from expiring
	// a LATER send's deadline on the shared connection.
	var watchStop chan struct{}
	if ctx.Done() != nil {
		watchStop = make(chan struct{})
		tc.dlmu.Lock()
		tc.seq++
		mySeq := tc.seq
		tc.writing = true
		tc.dlmu.Unlock()
		go func() {
			select {
			case <-ctx.Done():
				tc.dlmu.Lock()
				if tc.writing && tc.seq == mySeq {
					_ = tc.conn.SetWriteDeadline(time.Unix(1, 0))
				}
				tc.dlmu.Unlock()
			case <-watchStop:
			}
		}()
	}
	err := writeFrame(tc.conn, msg, n.maxFrame)
	if watchStop != nil {
		tc.dlmu.Lock()
		tc.writing = false
		tc.dlmu.Unlock()
		close(watchStop)
	}
	tc.wmu.Unlock()
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		// Connection went stale; drop it so the next send redials. An
		// oversized frame never reached the wire, so the connection
		// stays usable — keep it.
		if !errors.Is(err, ErrFrameTooLarge) {
			n.mu.Lock()
			if n.conns[to] == tc {
				delete(n.conns, to)
			}
			n.mu.Unlock()
			tc.conn.Close()
		}
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	return nil
}

// watchStale evicts an outbound connection the moment its peer hangs
// up. After the hello's verdict no data arrives on an outbound
// connection (peers reply by dialing the sender's listen address), so the only
// thing a blocking read can ever return is the peer's FIN or RST — or
// garbage, equally disqualifying. Without this, a crashed peer leaves a
// half-closed connection in the cache and the FIRST frame written to it
// disappears into the kernel buffer without an error: the write
// "succeeds", the peer is gone, and a peer restarted at the same
// address never sees the message. The prompt eviction makes the next
// send redial — and reach the restarted process.
func (n *TCPNode) watchStale(to string, tc *tcpConn) {
	defer n.wg.Done()
	var buf [1]byte
	_, _ = tc.conn.Read(buf[:]) // blocks until the peer closes (or misbehaves)
	n.mu.Lock()
	if n.conns[to] == tc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	tc.conn.Close()
}

// Close implements Endpoint.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	for _, c := range n.conns {
		c.conn.Close()
	}
	n.conns = map[string]*tcpConn{}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()

	n.listener.Close()
	n.wg.Wait()
	close(n.inbox)
	return nil
}

// writeFrame writes msg's envelope as one frame.
func writeFrame(w io.Writer, msg *Message, maxFrame int64) error {
	size := uvarintLen(uint64(len(msg.Type))) + len(msg.Type) + uvarintLen(msg.Round) + len(msg.Payload)
	if int64(size) > maxFrame {
		return fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrFrameTooLarge, size, maxFrame)
	}
	// One Write per frame: the length prefix and the envelope go out
	// together (callers additionally serialize on a per-connection
	// mutex; a single buffer also halves the syscalls).
	frame := make([]byte, 4, 4+size)
	binary.BigEndian.PutUint32(frame, uint32(size))
	frame = appendEnvelope(frame, msg)
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame and decodes its envelope; the payload
// aliases the frame's own buffer.
func readFrame(r io.Reader, maxFrame int64) (*Message, error) {
	var ln [4]byte
	if _, err := io.ReadFull(r, ln[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(ln[:])
	// Reject before allocating: the prefix alone can claim 4 GiB.
	if int64(size) > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte limit", ErrFrameTooLarge, size, maxFrame)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	msg, ok := parseEnvelope(frame)
	if !ok {
		return nil, errors.New("transport: malformed frame")
	}
	return msg, nil
}

// appendEnvelope appends msg's kind, round and payload in the member
// envelope (the frame minus its length prefix).
func appendEnvelope(b []byte, msg *Message) []byte {
	b = binary.AppendUvarint(b, uint64(len(msg.Type)))
	b = append(b, msg.Type...)
	b = binary.AppendUvarint(b, msg.Round)
	return append(b, msg.Payload...)
}

// parseEnvelope decodes one frame body into a Message with no From or
// To; ok is false when b is not a well-formed envelope. The payload
// aliases b.
func parseEnvelope(b []byte) (msg *Message, ok bool) {
	kl, k := binary.Uvarint(b)
	if k <= 0 || kl > uint64(len(b)-k) {
		return nil, false
	}
	kind := string(b[k : k+int(kl)])
	b = b[k+int(kl):]
	round, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, false
	}
	return &Message{Type: kind, Round: round, Payload: b[k:]}, true
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
