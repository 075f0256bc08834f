// Package daemon serves an Atom deployment over TCP: remote clients
// fetch the deployment's public keys, perform all cryptography locally
// (padding, onion encryption, NIZKs, traps), and ship opaque wire
// submissions into the continuous service's open round; the service
// seals and mixes rounds on its own schedule and clients await the
// round that admitted them. cmd/atomd and cmd/atomclient are thin
// wrappers around this package.
//
// The gob RPC surface is four requests: Info (deployment description),
// ServeInfo (the open round's id plus, in the trap variant, its trustee
// key), SubmitInto (one submission; EnableFastPath adds the binary
// multiplexed alternative) and Await (a round's published result).
// Round r+1 ingests while round r mixes. Every client method takes a
// context.Context whose deadline bounds the request round trip, so a
// dead server fails the call instead of hanging it. A failed request's
// reply, like a rejected fast-path ack, carries the error in
// internal/taxonomy's wire form, so the client returns an error that
// matches exactly the atom.Err* sentinels (and context errors) the
// server's did, with the same BlamedMember/LostMember attribution.
//
// The daemon hosts the full multi-group deployment in one process —
// the configuration the paper's single-machine experiments use. The
// wire protocol is the package's contribution; scaling the groups out
// across machines reuses the same transport.
package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"atom"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// Message types of the daemon protocol.
const (
	msgInfo      = "info"
	msgInfoReply = "info-reply"

	// Continuous-service (ingestion frontend) messages: clients fetch
	// the currently open round, submit into it, and await a round's
	// published result. Active only after EnableService.
	msgServeInfo   = "serve-info"
	msgServeReply  = "serve-info-reply"
	msgIngest      = "ingest"
	msgIngestReply = "ingest-reply"
	msgAwait       = "await"
	msgAwaitReply  = "await-reply"
)

// Info describes a deployment to clients.
type Info struct {
	Groups      int
	MessageSize int
	Trap        bool
	EntryKeys   [][]byte
	// SubmitAddr is the binary fast-path listener's address, empty when
	// the daemon runs gob-only (see EnableFastPath).
	SubmitAddr string
}

// RoundInfo describes the service's open round.
type RoundInfo struct {
	// ID is the server-assigned round id, passed to SubmitInto/Await.
	ID uint64
	// TrusteeKey is the round's trustee public key (trap variant only);
	// submissions into this round must be encrypted against it.
	TrusteeKey []byte
}

// reply is the generic response envelope.
type reply struct {
	OK bool
	// Err is a failed request's error in internal/taxonomy's wire form.
	Err      []byte
	Info     *Info
	Round    *RoundInfo
	Messages [][]byte
}

// gobBufs pools the scratch buffers the control RPCs encode through.
// The gob encoders themselves cannot be pooled — a gob.Encoder writes
// type descriptors once per stream, so reusing one across independent
// frames would emit frames the peer's fresh decoder cannot parse — but
// the buffer allocations can.
var gobBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeFallbackLog reports an unencodable reply once per process: it is
// a programming error worth a log line, not one worth a log flood.
var encodeFallbackLog sync.Once

func encodeReply(r *reply) []byte {
	buf := gobBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer gobBufs.Put(buf)
	if err := gob.NewEncoder(buf).Encode(r); err != nil {
		// A reply that cannot be encoded is a programming error; log it
		// once and encode a plain failure instead of dropping the request.
		encodeFallbackLog.Do(func() {
			log.Printf("daemon: reply encoding failed (replying with a generic error): %v", err)
		})
		buf.Reset()
		_ = gob.NewEncoder(buf).Encode(&reply{Err: taxonomy.AppendError(nil, errors.New("daemon: internal encoding error"))})
	}
	// The transport frame outlives the pooled buffer; copy out.
	return append([]byte(nil), buf.Bytes()...)
}

// decodeReply decodes a reply, returning a failed request's error as
// the typed error the server failed with.
func decodeReply(b []byte) (*reply, error) {
	var r reply
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, fmt.Errorf("daemon: decoding reply: %w", err)
	}
	if r.Err == nil {
		return &r, nil
	}
	err, _, ok := taxonomy.ReadError(r.Err)
	if !ok || err == nil {
		err = fmt.Errorf("daemon: malformed error in reply")
	}
	return nil, err
}

// Server hosts a deployment behind a TCP endpoint.
type Server struct {
	node    *transport.TCPNode
	network *atom.Network
	cfg     atom.Config

	// svc, when non-nil, is the continuous ingestion-and-mixing
	// pipeline the serve-info, ingest and await requests target.
	svc atomic.Pointer[atom.Service]

	// fast, when non-nil, is the binary multiplexed ingestion listener
	// (see EnableFastPath).
	fast *fastPath

	awaits sync.WaitGroup
	done   chan struct{}
}

// NewServer builds the deployment and starts listening on addr
// (":0" for an ephemeral port).
func NewServer(addr string, cfg atom.Config) (*Server, error) {
	network, err := atom.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	return NewServerWith(addr, cfg, network)
}

// NewServerWith hosts an existing network — the crash-restart path,
// where the deployment was rebuilt from a state directory
// (atom.RestoreNetwork) instead of a fresh key generation.
func NewServerWith(addr string, cfg atom.Config, network *atom.Network) (*Server, error) {
	node, err := transport.ListenTCP(addr, 1024)
	if err != nil {
		return nil, err
	}
	return &Server{
		node:    node,
		network: network,
		cfg:     cfg,
		done:    make(chan struct{}),
	}, nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.node.Addr() }

// Network exposes the hosted deployment (e.g. to install an Observer).
func (s *Server) Network() *atom.Network { return s.network }

// EnableService starts the continuous ingestion-and-mixing pipeline
// (atom.Network.Serve) that ServeInfo, SubmitInto and Await (and the
// fast path) talk to. The ctx is the pipeline's hard-stop
// switch; Close drains it gracefully.
func (s *Server) EnableService(ctx context.Context, opts atom.ServeOptions) error {
	svc, err := s.network.Serve(ctx, opts)
	if err != nil {
		return err
	}
	s.svc.Store(svc)
	return nil
}

// Service returns the continuous pipeline, nil before EnableService —
// e.g. for operators reading queue depths.
func (s *Server) Service() *atom.Service { return s.svc.Load() }

// Serve processes requests until Close. It is safe to run in a
// goroutine. Await requests park off the request loop, so the daemon
// keeps serving submissions while clients wait for rounds to publish.
func (s *Server) Serve() {
	for msg := range s.node.Inbox() {
		if resp := s.handle(msg); resp != nil {
			resp.Round = msg.Round // echo the request id for demux
			_ = s.node.Send(msg.From, resp)
		}
	}
	s.awaits.Wait()
	close(s.done)
}

// handle services one request; a nil return means the handler replies
// asynchronously.
func (s *Server) handle(msg *transport.Message) *transport.Message {
	switch msg.Type {
	case msgInfo:
		info := &Info{
			Groups:      s.network.Groups(),
			MessageSize: s.cfg.MessageSize,
			Trap:        s.cfg.Variant == atom.Trap,
		}
		for gid := 0; gid < s.network.Groups(); gid++ {
			key, err := s.network.EntryKey(gid)
			if err != nil {
				return fail(msgInfoReply, err)
			}
			info.EntryKeys = append(info.EntryKeys, key)
		}
		info.SubmitAddr = s.FastAddr()
		return &transport.Message{Type: msgInfoReply, Payload: encodeReply(&reply{OK: true, Info: info})}

	case msgServeInfo:
		svc := s.svc.Load()
		if svc == nil {
			return fail(msgServeReply, fmt.Errorf("daemon: not serving (no continuous service)"))
		}
		id, tkey, err := svc.Current()
		if err != nil {
			return fail(msgServeReply, err)
		}
		return &transport.Message{Type: msgServeReply, Payload: encodeReply(&reply{
			OK: true, Round: &RoundInfo{ID: id, TrusteeKey: tkey},
		})}

	case msgIngest:
		svc := s.svc.Load()
		if svc == nil {
			return fail(msgIngestReply, fmt.Errorf("daemon: not serving (no continuous service)"))
		}
		if len(msg.Payload) < 16 {
			return fail(msgIngestReply, fmt.Errorf("daemon: short ingest payload"))
		}
		rid := binary.BigEndian.Uint64(msg.Payload[:8])
		user := int(binary.BigEndian.Uint64(msg.Payload[8:16]))
		admitted, err := svc.SubmitEncoded(rid, user, msg.Payload[16:])
		if err != nil {
			return fail(msgIngestReply, err)
		}
		return &transport.Message{Type: msgIngestReply, Payload: encodeReply(&reply{
			OK: true, Round: &RoundInfo{ID: admitted},
		})}

	case msgAwait:
		svc := s.svc.Load()
		if svc == nil {
			return fail(msgAwaitReply, fmt.Errorf("daemon: not serving (no continuous service)"))
		}
		if len(msg.Payload) < 8 {
			return fail(msgAwaitReply, fmt.Errorf("daemon: short await payload"))
		}
		rid := binary.BigEndian.Uint64(msg.Payload[:8])
		from, seq := msg.From, msg.Round
		s.awaits.Add(1)
		go func() {
			defer s.awaits.Done()
			// The park is bounded server-side: a bogus or long-gone
			// round id must not pin a goroutine until shutdown (the
			// client's own deadline is usually far shorter anyway).
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			out, err := svc.WaitRound(ctx, rid)
			var resp *transport.Message
			switch {
			case err != nil:
				resp = fail(msgAwaitReply, err)
			case out.Err != nil:
				resp = fail(msgAwaitReply, out.Err)
			default:
				resp = &transport.Message{Type: msgAwaitReply, Payload: encodeReply(&reply{OK: true, Messages: out.Messages})}
			}
			resp.Round = seq
			_ = s.node.Send(from, resp)
		}()
		return nil

	default:
		return fail(msg.Type+"-reply", fmt.Errorf("daemon: unknown request %q", msg.Type))
	}
}

func fail(typ string, err error) *transport.Message {
	return &transport.Message{Type: typ, Payload: encodeReply(&reply{Err: taxonomy.AppendError(nil, err)})}
}

// Close shuts the daemon down: the fast path stops accepting (its
// queued submissions flush), the continuous service (if enabled) drains
// gracefully, then the endpoint closes and in-flight awaits finish.
func (s *Server) Close() error {
	if s.fast != nil {
		s.fast.close()
	}
	if svc := s.svc.Load(); svc != nil {
		_ = svc.Close()
	}
	err := s.node.Close()
	<-s.done
	return err
}

// Client talks to a daemon. Each client owns its own TCP endpoint (the
// reply channel) and demultiplexes replies by request sequence number,
// so its methods are safe for concurrent use — submissions into round
// r+1 can be in flight while an Await of round r is outstanding.
type Client struct {
	node   *transport.TCPNode
	server string
	// timeout bounds a request round trip when the context carries no
	// deadline of its own.
	timeout time.Duration

	seq atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan *transport.Message
	closed  bool
}

// Dial creates a client for the daemon at serverAddr.
func Dial(serverAddr string) (*Client, error) {
	node, err := transport.ListenTCP("127.0.0.1:0", 64)
	if err != nil {
		return nil, err
	}
	c := &Client{
		node:    node,
		server:  serverAddr,
		timeout: 30 * time.Second,
		waiters: make(map[uint64]chan *transport.Message),
	}
	go c.demux()
	return c, nil
}

// SetTimeout adjusts the default per-request bound applied when a
// context has no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Close releases the client's endpoint; outstanding requests fail.
func (c *Client) Close() error { return c.node.Close() }

// demux owns the inbox: it routes each reply to the waiter whose
// request sequence number it echoes. Stale replies (from requests whose
// context expired) are dropped.
func (c *Client) demux() {
	for msg := range c.node.Inbox() {
		c.mu.Lock()
		ch, ok := c.waiters[msg.Round]
		if ok {
			delete(c.waiters, msg.Round)
		}
		c.mu.Unlock()
		if ok {
			ch <- msg // buffered; never blocks
		}
	}
	// Endpoint closed: fail every outstanding waiter.
	c.mu.Lock()
	c.closed = true
	for seq, ch := range c.waiters {
		close(ch)
		delete(c.waiters, seq)
	}
	c.mu.Unlock()
}

// roundTrip sends req and waits for its reply, honoring the context's
// deadline (or the client's default timeout when the context has
// none) — a dead server fails the call instead of hanging it.
func (c *Client) roundTrip(ctx context.Context, req *transport.Message) (*reply, error) {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	seq := c.seq.Add(1)
	ch := make(chan *transport.Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("daemon: client closed")
	}
	c.waiters[seq] = ch
	c.mu.Unlock()
	abandon := func() {
		c.mu.Lock()
		delete(c.waiters, seq)
		c.mu.Unlock()
	}

	req.Round = seq
	if err := c.node.Send(c.server, req); err != nil {
		abandon()
		return nil, err
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("daemon: client closed")
		}
		return decodeReply(msg.Payload)
	case <-ctx.Done():
		abandon()
		return nil, fmt.Errorf("daemon: %s request: %w", req.Type, ctx.Err())
	}
}

// Info fetches the deployment description.
func (c *Client) Info(ctx context.Context) (*Info, error) {
	r, err := c.roundTrip(ctx, &transport.Message{Type: msgInfo})
	if err != nil {
		return nil, err
	}
	if r.Info == nil {
		return nil, fmt.Errorf("daemon: empty info reply")
	}
	return r.Info, nil
}

// ServeInfo fetches the continuous service's currently open round: its
// id and, in the trap variant, its trustee key. Clients encrypt against
// that key and SubmitInto that round; when the round seals under them
// (ErrRoundClosed) they re-fetch and re-encrypt.
func (c *Client) ServeInfo(ctx context.Context) (*RoundInfo, error) {
	r, err := c.roundTrip(ctx, &transport.Message{Type: msgServeInfo})
	if err != nil {
		return nil, err
	}
	if r.Round == nil {
		return nil, fmt.Errorf("daemon: empty serve-info reply")
	}
	return r.Round, nil
}

// SubmitInto ships a wire-encoded submission into the continuous
// service's open round. round 0 targets whichever round is open (NIZK
// encodings are round-independent); a nonzero round fails with
// ErrRoundClosed if that round already sealed. It returns the round
// that admitted the submission, for a later Await. Safe for concurrent
// use.
func (c *Client) SubmitInto(ctx context.Context, round uint64, user int, wire []byte) (uint64, error) {
	payload := make([]byte, 16+len(wire))
	binary.BigEndian.PutUint64(payload[:8], round)
	binary.BigEndian.PutUint64(payload[8:16], uint64(user))
	copy(payload[16:], wire)
	r, err := c.roundTrip(ctx, &transport.Message{Type: msgIngest, Payload: payload})
	if err != nil {
		return 0, err
	}
	if r.Round == nil {
		return 0, fmt.Errorf("daemon: empty ingest reply")
	}
	return r.Round.ID, nil
}

// Await blocks until the continuous service publishes the given round,
// returning its anonymized messages (or its typed failure). The wait is
// bounded by ctx (or the client's default timeout).
func (c *Client) Await(ctx context.Context, round uint64) ([][]byte, error) {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, round)
	r, err := c.roundTrip(ctx, &transport.Message{Type: msgAwait, Payload: payload})
	if err != nil {
		return nil, err
	}
	return r.Messages, nil
}

// SubmitBatch encrypts msgs locally and ships them over c as users base,
// base+1, …, spreading them across entry groups — the batch-submission
// path cmd/atomclient's gob mode and the atomsim -serve fleet share. ri
// names the target round (and, trap variant, carries its trustee key).
// It returns how many submissions were accepted; on the first failure it
// returns that error (an ErrRoundClosed mid-batch means the round sealed
// — re-fetch and retry the remainder).
func SubmitBatch(ctx context.Context, c *Client, enc *atom.Client, info *Info, ri *RoundInfo, base int, msgs [][]byte) (int, error) {
	for i, m := range msgs {
		user := base + i
		gid := user % info.Groups
		wire, err := enc.EncryptSubmission(m, info.EntryKeys[gid], ri.TrusteeKey, gid)
		if err != nil {
			return i, err
		}
		if _, err := c.SubmitInto(ctx, ri.ID, user, wire); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}
