package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"atom"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// Client is a connection to a daemon. Thousands of logical clients can
// multiplex one Client: submits are pipelined without per-message round
// trips and their verdicts arrive asynchronously through per-submission
// callbacks as the daemon's coalesced ack frames land, while Info and
// Await are answered on the same connection, matched by seq. All
// methods are safe for concurrent use.
type Client struct {
	conn net.Conn

	// wmu guards the write side: the pending submit frame under
	// construction and the socket itself.
	wmu     sync.Mutex
	entries []byte
	count   int
	werr    error

	// pmu guards the tables of outstanding submits and calls; a holder
	// of both takes wmu first.
	pmu     sync.Mutex
	pending map[uint64]func(round uint64, err error)
	calls   map[uint64]chan reply
	seq     uint64
	lost    error // why the connection died; nil while it lives

	stop     chan struct{}
	stopOnce sync.Once
}

// reply is a parsed info or await reply.
type reply struct {
	info *Info
	msgs [][]byte
	err  error
}

// flushBytes is the pending-frame size that triggers an inline flush;
// below it the background flusher (or an explicit Flush) sends the
// stragglers.
const flushBytes = 32 << 10

// Dial connects to the daemon at addr. The hello exchange is bounded;
// a daemon speaking another protocol version refuses it with
// atom.ErrProtocolVersion.
func Dial(addr string) (*Client, error) { return DialContext(context.Background(), addr) }

// DialContext is Dial with the connection set-up bounded by ctx.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	conn, err := transport.DialHello(ctx, addr, "")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]func(uint64, error)),
		calls:   make(map[uint64]chan reply),
		stop:    make(chan struct{}),
	}
	go c.readLoop()
	go c.flushLoop()
	return c, nil
}

// Submit pipelines one wire-encoded submission for the given logical
// user into the given round (0 = whichever round is open). done fires
// exactly once — with the admitting round, or with the daemon's typed
// error — from the client's reader goroutine, so keep it cheap.
// Submissions buffer until flushBytes accumulate, the background
// flusher fires, or Flush is called.
func (c *Client) Submit(round uint64, user int, wire []byte, done func(round uint64, err error)) {
	c.wmu.Lock()
	c.pmu.Lock()
	err := c.lost
	if err == nil && c.werr != nil {
		err = fmt.Errorf("daemon: send: %w", c.werr)
	}
	if err == nil {
		c.seq++
		c.pending[c.seq] = done
	}
	seq := c.seq
	c.pmu.Unlock()
	if err != nil {
		c.wmu.Unlock()
		done(0, err)
		return
	}
	c.entries = binary.AppendUvarint(c.entries, seq)
	c.entries = binary.AppendUvarint(c.entries, uint64(user))
	c.entries = binary.AppendUvarint(c.entries, round)
	c.entries = binary.AppendUvarint(c.entries, uint64(len(wire)))
	c.entries = append(c.entries, wire...)
	c.count++
	if len(c.entries) >= flushBytes {
		err = c.flushLocked()
	}
	c.wmu.Unlock()
	if err != nil {
		c.failAll(err)
	}
}

// Flush sends any buffered submissions now.
func (c *Client) Flush() error {
	c.wmu.Lock()
	err := c.flushLocked()
	c.wmu.Unlock()
	if err != nil {
		c.failAll(err)
	}
	return err
}

func (c *Client) flushLocked() error {
	if c.werr != nil {
		return c.werr
	}
	if c.count == 0 {
		return nil
	}
	payload := make([]byte, 0, 16+len(c.entries))
	payload = append(payload, typeSubmit)
	payload = binary.AppendUvarint(payload, uint64(c.count))
	payload = append(payload, c.entries...)
	c.entries = c.entries[:0]
	c.count = 0
	return c.writeFrameLocked(payload)
}

// flushLoop drains stragglers that never reached flushBytes, so a
// trickling submitter still sees bounded latency.
func (c *Client) flushLoop() {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = c.Flush()
		case <-c.stop:
			return
		}
	}
}

func (c *Client) writeFrame(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeFrameLocked(payload)
}

func (c *Client) writeFrameLocked(payload []byte) error {
	if c.werr != nil {
		return c.werr
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		c.werr = err
		return err
	}
	if _, err := c.conn.Write(payload); err != nil {
		c.werr = err
		return err
	}
	return nil
}

// SubmitInto ships one wire-encoded submission and waits for its
// verdict, bounded by ctx: the round that admitted it, for a later
// Await, or the daemon's typed error. round 0 targets whichever round
// is open (NIZK encodings are round-independent); a nonzero round fails
// with ErrRoundClosed if that round already sealed.
func (c *Client) SubmitInto(ctx context.Context, round uint64, user int, wire []byte) (uint64, error) {
	type verdict struct {
		round uint64
		err   error
	}
	ch := make(chan verdict, 1)
	c.Submit(round, user, wire, func(round uint64, err error) { ch <- verdict{round, err} })
	_ = c.Flush() // a write error settles the callback
	select {
	case v := <-ch:
		return v.round, v.err
	case <-ctx.Done():
		return 0, fmt.Errorf("daemon: submit: %w", ctx.Err())
	}
}

// Info fetches the deployment description and the continuous service's
// open round: its id and, in the trap variant, its trustee key. Clients
// encrypt against that key and submit into that round; when the round
// seals under them (ErrRoundClosed) they fetch the info again and
// re-encrypt.
func (c *Client) Info(ctx context.Context) (*Info, error) {
	r, err := c.call(ctx, typeInfo, 0)
	if err != nil {
		return nil, err
	}
	return r.info, nil
}

// Await blocks until the continuous service publishes the given round,
// returning its anonymized messages (or its typed failure). The wait is
// bounded by ctx, and by the daemon's own ten-minute park.
func (c *Client) Await(ctx context.Context, round uint64) ([][]byte, error) {
	r, err := c.call(ctx, typeAwait, round)
	if err != nil {
		return nil, err
	}
	return r.msgs, nil
}

// call sends an info or await request and waits, bounded by ctx, for
// the reply carrying its seq.
func (c *Client) call(ctx context.Context, typ byte, round uint64) (reply, error) {
	ch := make(chan reply, 1)
	c.pmu.Lock()
	if c.lost != nil {
		err := c.lost
		c.pmu.Unlock()
		return reply{}, err
	}
	c.seq++
	seq := c.seq
	c.calls[seq] = ch
	c.pmu.Unlock()

	req := binary.AppendUvarint([]byte{typ}, seq)
	if typ == typeAwait {
		req = binary.AppendUvarint(req, round)
	}
	if err := c.writeFrame(req); err != nil {
		c.failAll(err)
	}
	select {
	case r, ok := <-ch:
		if !ok {
			c.pmu.Lock()
			err := c.lost
			c.pmu.Unlock()
			return reply{}, err
		}
		return r, r.err
	case <-ctx.Done():
		c.pmu.Lock()
		delete(c.calls, seq)
		c.pmu.Unlock()
		return reply{}, fmt.Errorf("daemon: request: %w", ctx.Err())
	}
}

// readLoop parses the daemon's frames, settling verdicts and replies.
func (c *Client) readLoop() {
	var hdr [4]byte
	buf := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
			c.failAll(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxReply {
			c.failAll(fmt.Errorf("daemon: frame of %d bytes", n))
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(c.conn, buf); err != nil {
			c.failAll(err)
			return
		}
		typ, body := buf[0], buf[1:]
		var seq uint64
		var r reply
		ok := false
		switch typ {
		case typeAck:
			ok = c.handleAcks(body)
		case typeInfoReply:
			seq, r.info, r.err, ok = parseInfoReply(body)
		case typeAwaitReply:
			seq, r.msgs, r.err, ok = parseAwaitReply(body)
		}
		if !ok {
			c.failAll(fmt.Errorf("daemon: malformed frame of type %d", typ))
			return
		}
		if typ != typeAck {
			c.pmu.Lock()
			ch, found := c.calls[seq]
			delete(c.calls, seq)
			c.pmu.Unlock()
			if found {
				ch <- r // buffered; never blocks
			}
		}
	}
}

// handleAcks parses one ack frame's body — server bytes — and settles
// each verdict's callback; false means the body is malformed.
func (c *Client) handleAcks(body []byte) bool {
	count, body, ok := uvarint(body)
	if !ok {
		return false
	}
	for i := uint64(0); i < count; i++ {
		var seq, round uint64
		var err error
		if seq, body, ok = uvarint(body); !ok {
			return false
		}
		if err, body, ok = taxonomy.ReadError(body); !ok {
			return false
		}
		if round, body, ok = uvarint(body); !ok {
			return false
		}
		c.pmu.Lock()
		done, found := c.pending[seq]
		delete(c.pending, seq)
		c.pmu.Unlock()
		if found {
			done(round, err)
		}
	}
	return true
}

// failAll settles every outstanding submission and call after the
// connection died; later requests fail immediately.
func (c *Client) failAll(err error) {
	c.pmu.Lock()
	if c.lost != nil {
		c.pmu.Unlock()
		return
	}
	c.lost = fmt.Errorf("daemon: connection lost: %w", err)
	callbacks := make([]func(uint64, error), 0, len(c.pending))
	for seq, done := range c.pending {
		callbacks = append(callbacks, done)
		delete(c.pending, seq)
	}
	for seq, ch := range c.calls {
		close(ch)
		delete(c.calls, seq)
	}
	lost := c.lost
	c.pmu.Unlock()
	for _, done := range callbacks {
		done(0, lost)
	}
}

// Close tears the connection down; outstanding requests fail.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	err := c.conn.Close()
	c.failAll(errors.New("client closed"))
	return err
}

// SubmitBatch encrypts msgs for the open round and pipelines them over c
// as users base, base+1, …, spreading them across entry groups — the
// batch path cmd/atomclient and the atomsim -serve fleet share. A
// submission refused because its round sealed mid-batch
// (ErrRoundClosed) is re-encrypted for the successor and retried. It
// returns the rounds that admitted the batch, in order of first
// admission, and the first other rejection; ctx bounds the whole batch.
func SubmitBatch(ctx context.Context, c *Client, enc *atom.Client, base int, msgs [][]byte) ([]uint64, error) {
	type verdict struct {
		i     int
		round uint64
		err   error
	}
	pending := make([]int, len(msgs))
	for i := range pending {
		pending[i] = i
	}
	var rounds []uint64
	seen := map[uint64]bool{}
	for len(pending) > 0 {
		info, err := c.Info(ctx)
		if err != nil {
			return rounds, err
		}
		wires := make([][]byte, len(pending))
		for k, i := range pending {
			gid := (base + i) % info.Groups
			if wires[k], err = enc.EncryptSubmission(msgs[i], info.EntryKeys[gid], info.Round.TrusteeKey, gid); err != nil {
				return rounds, err
			}
		}
		verdicts := make(chan verdict, len(pending))
		for k, i := range pending {
			c.Submit(info.Round.ID, base+i, wires[k], func(round uint64, err error) { verdicts <- verdict{i, round, err} })
		}
		_ = c.Flush() // a write error settles the callbacks
		var retry []int
		var firstErr error
		for range pending {
			var v verdict
			select {
			case v = <-verdicts:
			case <-ctx.Done():
				return rounds, fmt.Errorf("daemon: submit: %w", ctx.Err())
			}
			switch {
			case v.err == nil:
				if !seen[v.round] {
					seen[v.round] = true
					rounds = append(rounds, v.round)
				}
			case errors.Is(v.err, atom.ErrRoundClosed):
				retry = append(retry, v.i)
			case firstErr == nil:
				firstErr = v.err
			}
		}
		if firstErr != nil {
			return rounds, firstErr
		}
		pending = retry
	}
	return rounds, nil
}
