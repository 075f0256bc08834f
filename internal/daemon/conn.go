package daemon

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"atom"
	"atom/internal/transport"
)

// frameBuf is a pooled, reference-counted frame buffer. Submission wire
// bytes are zero-copy subslices of the frame they arrived in, so the
// buffer returns to the pool only after every submission it carries has
// been flushed through admission.
type frameBuf struct {
	b    []byte
	refs atomic.Int32
	pool *sync.Pool
}

func (f *frameBuf) release() {
	if f.refs.Add(-1) == 0 {
		f.pool.Put(f)
	}
}

// sub is one submission in flight between a connection reader and an
// admission worker.
type sub struct {
	c     *conn
	frame *frameBuf
	seq   uint64
	user  int
	round uint64
	wire  []byte
}

// ack is one acknowledgment queued for a connection's writer.
type ack struct {
	seq   uint64
	round uint64
	err   error
}

// conn is one accepted client connection.
type conn struct {
	s    *Server
	c    net.Conn
	acks chan ack
	// ctx ends when the connection is shut: it releases verdicts and
	// awaits bound for a peer that will never read them.
	ctx     context.Context
	shutCtx context.CancelFunc

	wmu  sync.Mutex // serializes frame writes (ack writer vs replies)
	once sync.Once
}

func (c *conn) shut() {
	c.once.Do(func() {
		c.shutCtx()
		_ = c.c.Close()
		c.s.dropConn(c)
	})
}

// run answers the connection's hello, then serves its frames.
func (c *conn) run() {
	defer c.s.readers.Done()
	defer c.shut()
	if _, err := transport.AcceptHello(c.c, false); err != nil {
		return
	}
	go c.ackLoop()
	c.readLoop()
}

// readLoop parses frames: submissions into the shared admission queue,
// info and await requests into replies. Any protocol violation drops the
// connection — a client is trusted to speak the framing, not to be
// honest about its submissions.
func (c *conn) readLoop() {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(c.c, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxRequest {
			return
		}
		fb := c.s.bufs.Get().(*frameBuf)
		if cap(fb.b) < int(n) {
			fb.b = make([]byte, n)
		}
		fb.b = fb.b[:n]
		if _, err := io.ReadFull(c.c, fb.b); err != nil {
			c.s.bufs.Put(fb)
			return
		}
		typ, body := fb.b[0], fb.b[1:]
		if typ == typeSubmit {
			subs, ok := c.parseSubmit(fb, body)
			if !ok {
				c.s.bufs.Put(fb)
				return
			}
			if len(subs) == 0 {
				c.s.bufs.Put(fb)
				continue
			}
			fb.refs.Store(int32(len(subs)))
			for _, sub := range subs {
				c.s.queue <- sub
			}
			if m := c.s.metrics; m != nil {
				if d := int64(len(c.s.queue)); d > c.s.queueHWM.Load() {
					c.s.queueHWM.Store(d)
					m.submitQueueHWM.Store(d)
				}
			}
			continue
		}
		seq, round, ok := parseCall(typ, body)
		c.s.bufs.Put(fb)
		switch {
		case ok && typ == typeInfo:
			c.info(seq)
		case ok && typ == typeAwait:
			c.await(seq, round)
		default:
			return
		}
	}
}

// parseSubmit splits a submit body into subs whose wire bytes alias the
// frame buffer.
func (c *conn) parseSubmit(fb *frameBuf, body []byte) ([]sub, bool) {
	count, body, ok := uvarint(body)
	// count comes from an unauthenticated peer. A submission is at least
	// its four uvarint headers, so a count the body cannot hold is refused
	// outright, and the pre-size stops at one ack frame's worth: at 64 B
	// per entry, sizing from count alone let one 16 MiB frame demand 1 GiB.
	if !ok || count > uint64(len(body))/4 {
		return nil, false
	}
	subs := make([]sub, 0, min(count, maxAcks))
	for i := uint64(0); i < count; i++ {
		var seq, user, round, wlen uint64
		if seq, body, ok = uvarint(body); !ok {
			return nil, false
		}
		if user, body, ok = uvarint(body); !ok {
			return nil, false
		}
		if round, body, ok = uvarint(body); !ok {
			return nil, false
		}
		if wlen, body, ok = uvarint(body); !ok || wlen > uint64(len(body)) {
			return nil, false
		}
		subs = append(subs, sub{
			c:     c,
			frame: fb,
			seq:   seq,
			user:  int(user),
			round: round,
			wire:  body[:wlen:wlen],
		})
		body = body[wlen:]
	}
	return subs, len(body) == 0
}

// info answers an info request: the deployment and its open round.
func (c *conn) info(seq uint64) {
	info, err := c.s.describe()
	c.writeFrame(appendInfoReply([]byte{typeInfoReply}, seq, info, err))
}

// describe returns the deployment and the service's open round.
func (s *Server) describe() (*Info, error) {
	svc := s.svc.Load()
	if svc == nil {
		return nil, errNotServing
	}
	id, tkey, err := svc.Current()
	info := &Info{
		Groups:      s.network.Groups(),
		MessageSize: s.cfg.MessageSize,
		Trap:        s.cfg.Variant == atom.Trap,
		Round:       RoundInfo{ID: id, TrusteeKey: tkey},
	}
	for gid := 0; gid < info.Groups && err == nil; gid++ {
		var key []byte
		key, err = s.network.EntryKey(gid)
		info.EntryKeys = append(info.EntryKeys, key)
	}
	return info, err
}

// await parks an await request off the reader until the round
// publishes, the connection closes, or awaitBound passes, then answers
// it on the connection.
func (c *conn) await(seq, round uint64) {
	svc := c.s.svc.Load()
	if svc == nil {
		c.writeFrame(appendAwaitReply([]byte{typeAwaitReply}, seq, nil, errNotServing))
		return
	}
	c.s.awaits.Add(1)
	go func() {
		defer c.s.awaits.Done()
		ctx, cancel := context.WithTimeout(c.ctx, awaitBound)
		defer cancel()
		var msgs [][]byte
		out, err := svc.WaitRound(ctx, round)
		if err == nil {
			msgs, err = out.Messages, out.Err
		}
		reply := appendAwaitReply([]byte{typeAwaitReply}, seq, msgs, err)
		if len(reply) > maxReply {
			reply = appendAwaitReply(reply[:1], seq, nil, fmt.Errorf(
				"daemon: round %d's %d-byte result exceeds the %d-byte reply limit", round, len(reply), maxReply))
		}
		c.writeFrame(reply)
	}()
}

// writeFrame writes one length-prefixed frame; a failed write drops the
// connection (the reader notices on its next read).
func (c *conn) writeFrame(payload []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.c.Write(hdr[:]); err != nil {
		c.shut()
		return
	}
	if _, err := c.c.Write(payload); err != nil {
		c.shut()
	}
}

// ackLoop coalesces queued acknowledgments into ack frames: one write
// covers however many verdicts have accumulated since the last.
func (c *conn) ackLoop() {
	buf := make([]byte, 0, 4096)
	pending := make([]ack, 0, 256)
	for {
		select {
		case a := <-c.acks:
			pending = append(pending[:0], a)
		case <-c.ctx.Done():
			return
		}
	drain:
		for len(pending) < maxAcks {
			select {
			case more := <-c.acks:
				pending = append(pending, more)
			default:
				break drain
			}
		}
		buf = appendAcks(append(buf[:0], typeAck), pending)
		c.writeFrame(buf)
	}
}

// ack queues one verdict. A verdict for a shut connection is dropped;
// a connection that stopped draining its acks (a pathologically slow
// peer) is shut rather than allowed to stall the admission plane.
func (c *conn) ack(a ack) {
	select {
	case c.acks <- a:
	case <-c.ctx.Done():
	default:
		c.shut()
	}
}

// worker drains the admission queue: it greedily collects a batch (up to
// admitMaxBatch, lingering briefly when the queue runs dry) and flushes
// it through the service's batched admission.
func (s *Server) worker() {
	defer s.workerWG.Done()
	batch := make([]sub, 0, admitMaxBatch)
	for first := range s.queue {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < admitMaxBatch {
			select {
			case more, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, more)
			default:
				t := time.NewTimer(admitLinger)
				select {
				case more, ok := <-s.queue:
					t.Stop()
					if !ok {
						break fill
					}
					batch = append(batch, more)
				case <-t.C:
					break fill
				}
			}
		}
		s.flush(batch)
	}
}

// flush admits one batch. Submissions are grouped by their round pin
// (almost always the whole batch targets round 0, the open round) and
// each group goes through the service's batched admission; every
// submission is acknowledged on its own connection and its frame
// reference released.
func (s *Server) flush(batch []sub) {
	svc := s.svc.Load()
	if svc == nil {
		for _, sub := range batch {
			sub.c.ack(ack{seq: sub.seq, err: errNotServing})
			sub.frame.release()
		}
		return
	}
	groups := map[uint64][]int{}
	for i, sub := range batch {
		groups[sub.round] = append(groups[sub.round], i)
	}
	for pin, idxs := range groups {
		users := make([]int, len(idxs))
		wires := make([][]byte, len(idxs))
		for k, i := range idxs {
			users[k], wires[k] = batch[i].user, batch[i].wire
		}
		rounds, errs := svc.SubmitEncodedBatch(pin, users, wires)
		for k, i := range idxs {
			sub := batch[i]
			sub.c.ack(ack{seq: sub.seq, round: rounds[k], err: errs[k]})
			sub.frame.release()
		}
	}
}
