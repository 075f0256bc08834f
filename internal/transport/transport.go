package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Message is one protocol message between nodes. Payload encoding is the
// protocol layer's concern.
type Message struct {
	Type    string // protocol message kind, e.g. "submit", "batch", "proof"
	From    string
	To      string
	Round   uint64
	Payload []byte
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Addr returns this node's address.
	Addr() string
	// Send delivers msg (with From/To filled in) to the named node.
	Send(to string, msg *Message) error
	// SendCtx is Send honoring the context: a blocked delivery (inbox
	// backpressure, a slow dial or write) gives up with ctx.Err() when
	// the context expires.
	SendCtx(ctx context.Context, to string, msg *Message) error
	// Inbox returns the channel of received messages. It is closed when
	// the endpoint closes.
	Inbox() <-chan *Message
	// Close detaches the node.
	Close() error
}

// ErrClosed is returned when sending through a closed endpoint or to a
// departed node.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownNode is returned when the destination is not attached.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrFrameTooLarge is returned when a frame exceeds the endpoint's
// configured maximum — on write before any bytes leave, and on read
// before the claimed length is allocated (a malformed or hostile length
// prefix must not drive allocation).
var ErrFrameTooLarge = errors.New("transport: frame too large")

// Unreachable classifies a Send/SendCtx error as a peer-liveness
// failure: the destination endpoint is gone (closed, departed, refusing
// or dropping connections) rather than the message being malformed or
// the caller's context expired — or the peer refused the hello for a
// version skew (taxonomy.ErrProtocolVersion, a typed verdict from a live
// peer). The distributed round engine uses it to turn a failed delivery
// into a member-lost report instead of an opaque abort — on the
// in-memory network that is ErrClosed/ErrUnknownNode, on TCP any
// network-level dial or write failure.
func Unreachable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller gave up, not the peer
	}
	if errors.Is(err, ErrFrameTooLarge) {
		return false // the message, not the peer, is the problem
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownNode) {
		return true
	}
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return true
	}
	// Remaining TCP failures (io.EOF mid-frame, connection reset
	// surfaced as syscall errors) all wrap through the net layer above;
	// anything else is a local encoding problem.
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// LatencyFunc models one-way delivery delay between two nodes.
type LatencyFunc func(from, to string) time.Duration

// Stats is a snapshot of a node's traffic counters.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	MessagesSent  int64
}

// MemNetwork is an in-memory reliable network.
type MemNetwork struct {
	mu      sync.Mutex
	nodes   map[string]*memEndpoint
	latency LatencyFunc
	stats   map[string]*Stats
	buffer  int
}

// NewMemNetwork creates an in-memory network. latency may be nil for
// instantaneous delivery; buffer is the per-node inbox capacity
// (messages beyond it block the sender, modeling backpressure).
func NewMemNetwork(latency LatencyFunc, buffer int) *MemNetwork {
	if buffer <= 0 {
		buffer = 1024
	}
	return &MemNetwork{
		nodes:   make(map[string]*memEndpoint),
		latency: latency,
		stats:   make(map[string]*Stats),
		buffer:  buffer,
	}
}

// Attach creates an endpoint for the named node.
func (n *MemNetwork) Attach(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("transport: node %q already attached", addr)
	}
	ep := &memEndpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan *Message, n.buffer),
		done:  make(chan struct{}),
	}
	n.nodes[addr] = ep
	if _, ok := n.stats[addr]; !ok {
		n.stats[addr] = &Stats{}
	}
	return ep, nil
}

// Stats returns a copy of the traffic counters for a node.
func (n *MemNetwork) Stats(addr string) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.stats[addr]; ok {
		return *s
	}
	return Stats{}
}

// TotalBytes returns the sum of bytes sent across all nodes.
func (n *MemNetwork) TotalBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for _, s := range n.stats {
		total += s.BytesSent
	}
	return total
}

func (n *MemNetwork) deliver(ctx context.Context, from string, msg *Message) error {
	n.mu.Lock()
	dst, ok := n.nodes[msg.To]
	var delay time.Duration
	if ok {
		size := int64(len(msg.Payload) + len(msg.Type) + len(msg.From) + len(msg.To) + 8)
		n.stats[from].BytesSent += size
		n.stats[from].MessagesSent++
		if s, ok2 := n.stats[msg.To]; ok2 {
			s.BytesReceived += size
		}
		if n.latency != nil {
			delay = n.latency(from, msg.To)
		}
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	if delay > 0 {
		// The message is in flight: the sender has committed it and
		// cannot be blocked (or canceled) any more, so the delayed push
		// carries no context.
		time.AfterFunc(delay, func() { _ = dst.push(context.Background(), msg) })
		return nil
	}
	return dst.push(ctx, msg)
}

type memEndpoint struct {
	net   *MemNetwork
	addr  string
	inbox chan *Message
	// done unblocks pushes stuck on a full inbox when the endpoint
	// closes; senders counts in-flight pushes so Close can close the
	// inbox only after the last one has exited.
	done    chan struct{}
	senders sync.WaitGroup
	mu      sync.Mutex
	closed  bool
}

func (e *memEndpoint) Addr() string { return e.addr }

func (e *memEndpoint) Send(to string, msg *Message) error {
	return e.SendCtx(context.Background(), to, msg)
}

func (e *memEndpoint) SendCtx(ctx context.Context, to string, msg *Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := *msg
	cp.From = e.addr
	cp.To = to
	return e.net.deliver(ctx, e.addr, &cp)
}

func (e *memEndpoint) Inbox() <-chan *Message { return e.inbox }

// push enqueues a message. A full inbox blocks the sender (deliberate
// backpressure) until space frees, the destination closes, or ctx
// expires — a select on the endpoint's done channel, not a recover
// around a send into a closing channel.
func (e *memEndpoint) push(ctx context.Context, msg *Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.senders.Add(1)
	e.mu.Unlock()
	defer e.senders.Done()
	select {
	case e.inbox <- msg:
		return nil
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	// Unblock any push stuck on a full inbox, wait for all in-flight
	// pushes to exit (no new ones start once closed is set), and only
	// then close the inbox so receivers see a clean end-of-stream.
	close(e.done)
	e.senders.Wait()
	close(e.inbox)

	e.net.mu.Lock()
	delete(e.net.nodes, e.addr)
	e.net.mu.Unlock()
	return nil
}

// UniformLatency returns a LatencyFunc with constant one-way delay.
func UniformLatency(d time.Duration) LatencyFunc {
	return func(from, to string) time.Duration {
		if from == to {
			return 0
		}
		return d
	}
}

// PairwiseLatency deterministically assigns each ordered node pair a
// delay in [min, max], mimicking the paper's emulated WAN where "we
// artificially introduced a latency between 40 and 160 ms for each pair
// of servers" (§6). The assignment is symmetric and seeded.
func PairwiseLatency(seed string, min, max time.Duration) LatencyFunc {
	if max < min {
		min, max = max, min
	}
	span := max - min
	return func(from, to string) time.Duration {
		if from == to {
			return 0
		}
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		// Cheap deterministic hash of the unordered pair.
		var h uint64 = 14695981039346656037
		for _, s := range []string{seed, a, "|", b} {
			for i := 0; i < len(s); i++ {
				h ^= uint64(s[i])
				h *= 1099511628211
			}
		}
		if span == 0 {
			return min
		}
		return min + time.Duration(h%uint64(span))
	}
}
