package daemon

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/taxonomy"
)

// The fast path is the daemon's high-throughput ingestion surface: a
// separate listener speaking a compact binary framing instead of the gob
// RPC envelope, multiplexed so one TCP connection carries any number of
// logical clients. Submits are pipelined — the client streams fpSubmit
// frames without waiting — and the server acknowledges asynchronously
// with coalesced fpAck frames, so the per-submission wire cost is a few
// dozen bytes and zero round trips. Admission itself is batched: frames
// from every connection drain into one queue, and workers flush batches
// through Service.SubmitEncodedBatch, which verifies each batch's
// admission proofs as a single random-linear-combination check.
//
// Frame layout (all integers except the length prefix are uvarints):
//
//	frame     := u32_be length ‖ type_byte ‖ body
//	hello     := "ATOMFP2"                                  (client → server, first frame)
//	submit    := count ‖ { seq ‖ user ‖ round ‖ len ‖ wire }×count
//	ack       := count ‖ { seq ‖ error ‖ round }×count
//	info-req  := (empty)
//	info-rep  := round ‖ len ‖ trustee-key
//
// error is internal/taxonomy's wire form: the single byte 0 admits;
// a rejection carries the sentinels it matches, its attribution and its
// text, so FastClient rebuilds exactly the typed errors SubmitInto
// returns.
const (
	fpMagic    = "ATOMFP2"
	fpMaxFrame = 16 << 20
	// fpMaxAcks caps how many verdicts one ack frame coalesces.
	fpMaxAcks = 4096

	fpTypeHello     byte = 1
	fpTypeSubmit    byte = 2
	fpTypeInfoReq   byte = 3
	fpTypeAck       byte = 4
	fpTypeInfoReply byte = 5
)

// FastPathOptions tunes the fast-path admission plane.
type FastPathOptions struct {
	// MaxBatch caps how many submissions one admission flush verifies
	// together (default 256).
	MaxBatch int
	// Linger is how long a worker waits for stragglers when a flush
	// would otherwise be small (default 500µs). Zero keeps the default;
	// negative disables lingering.
	Linger time.Duration
	// Workers is the number of admission workers draining the queue
	// (default GOMAXPROCS capped at 4). On a single core one worker
	// forms the largest batches.
	Workers int
	// QueueDepth is the admission queue's capacity (default 8192);
	// when it fills, connection readers stop reading — TCP backpressure
	// instead of unbounded memory.
	QueueDepth int
	// Metrics, when set, receives the fast path's connection gauge and
	// queue high-water mark.
	Metrics *Metrics
}

func (o FastPathOptions) withDefaults() FastPathOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Linger == 0 {
		o.Linger = 500 * time.Microsecond
	}
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8192
	}
	return o
}

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

// fastSub is one submission in flight between a connection reader and an
// admission worker.
type fastSub struct {
	fc    *fastConn
	frame *frameBuf
	seq   uint64
	user  int
	round uint64
	wire  []byte
}

// fpAck is one acknowledgment queued for a connection's writer.
type fpAck struct {
	seq   uint64
	round uint64
	err   error
}

// fastPath is the server half: listener, per-connection readers/writers,
// and the shared admission queue.
type fastPath struct {
	srv  *Server
	ln   net.Listener
	opts FastPathOptions

	queue    chan fastSub
	queueHWM atomic.Int64
	bufs     sync.Pool

	mu      sync.Mutex
	conns   map[*fastConn]bool
	closing bool

	readers sync.WaitGroup
	workers sync.WaitGroup
}

// EnableFastPath starts the binary ingestion listener on addr (":0" for
// an ephemeral port) and returns the bound address, which the gob Info
// reply advertises as SubmitAddr. Submissions arriving before
// EnableService are rejected with a typed error; enable the service
// first. Close shuts the fast path down with the rest of the daemon.
func (s *Server) EnableFastPath(addr string, opts FastPathOptions) (string, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	fp := &fastPath{
		srv:   s,
		ln:    ln,
		opts:  opts,
		queue: make(chan fastSub, opts.QueueDepth),
		conns: make(map[*fastConn]bool),
	}
	fp.bufs.New = func() any { return &frameBuf{pool: &fp.bufs} }
	s.fast = fp
	fp.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go fp.worker()
	}
	go fp.accept()
	return ln.Addr().String(), nil
}

// FastAddr returns the fast-path listen address, empty when disabled.
func (s *Server) FastAddr() string {
	if s.fast == nil {
		return ""
	}
	return s.fast.ln.Addr().String()
}

// close stops the fast path: listener and connections first (stopping
// the readers), then the queue (letting workers flush the remainder).
func (fp *fastPath) close() {
	fp.mu.Lock()
	if fp.closing {
		fp.mu.Unlock()
		return
	}
	fp.closing = true
	conns := make([]*fastConn, 0, len(fp.conns))
	for fc := range fp.conns {
		conns = append(conns, fc)
	}
	fp.mu.Unlock()
	_ = fp.ln.Close()
	for _, fc := range conns {
		fc.shut()
	}
	fp.readers.Wait()
	close(fp.queue)
	fp.workers.Wait()
}

func (fp *fastPath) accept() {
	for {
		c, err := fp.ln.Accept()
		if err != nil {
			return
		}
		fc := &fastConn{fp: fp, c: c, acks: make(chan fpAck, 16384)}
		fp.mu.Lock()
		if fp.closing {
			fp.mu.Unlock()
			_ = c.Close()
			return
		}
		fp.conns[fc] = true
		fp.mu.Unlock()
		if m := fp.opts.Metrics; m != nil {
			m.submitConns.Add(1)
		}
		fp.readers.Add(1)
		go fc.readLoop()
		go fc.ackLoop()
	}
}

func (fp *fastPath) dropConn(fc *fastConn) {
	fp.mu.Lock()
	known := fp.conns[fc]
	delete(fp.conns, fc)
	fp.mu.Unlock()
	if known {
		if m := fp.opts.Metrics; m != nil {
			m.submitConns.Add(-1)
		}
	}
}

// fastConn is one accepted fast-path connection.
type fastConn struct {
	fp   *fastPath
	c    net.Conn
	acks chan fpAck

	wmu  sync.Mutex // serializes frame writes (ack writer vs info replies)
	once sync.Once
}

func (fc *fastConn) shut() {
	fc.once.Do(func() {
		_ = fc.c.Close()
		fc.fp.dropConn(fc)
	})
}

// readLoop parses frames into the shared admission queue. Any protocol
// violation drops the connection — a fast-path peer is trusted to speak
// the framing, not to be honest about its submissions.
func (fc *fastConn) readLoop() {
	defer fc.fp.readers.Done()
	defer fc.shut()
	defer close(fc.acks)
	var hdr [4]byte
	sawHello := false
	for {
		if _, err := io.ReadFull(fc.c, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > fpMaxFrame {
			return
		}
		fb := fc.fp.bufs.Get().(*frameBuf)
		if cap(fb.b) < int(n) {
			fb.b = make([]byte, n)
		}
		fb.b = fb.b[:n]
		if _, err := io.ReadFull(fc.c, fb.b); err != nil {
			fc.fp.bufs.Put(fb)
			return
		}
		typ, body := fb.b[0], fb.b[1:]
		if !sawHello {
			if typ != fpTypeHello || string(body) != fpMagic {
				fc.fp.bufs.Put(fb)
				return
			}
			sawHello = true
			fc.fp.bufs.Put(fb)
			continue
		}
		switch typ {
		case fpTypeSubmit:
			subs, ok := fc.parseSubmit(fb, body)
			if !ok {
				fc.fp.bufs.Put(fb)
				return
			}
			if len(subs) == 0 {
				fc.fp.bufs.Put(fb)
				continue
			}
			fb.refs.Store(int32(len(subs)))
			for _, sub := range subs {
				fc.fp.queue <- sub
			}
			if m := fc.fp.opts.Metrics; m != nil {
				if d := int64(len(fc.fp.queue)); d > fc.fp.queueHWM.Load() {
					fc.fp.queueHWM.Store(d)
					m.submitQueueHWM.Store(d)
				}
			}
		case fpTypeInfoReq:
			fc.fp.bufs.Put(fb)
			fc.sendInfo()
		default:
			fc.fp.bufs.Put(fb)
			return
		}
	}
}

// parseSubmit splits an fpSubmit body into fastSubs whose wire bytes
// alias the frame buffer.
func (fc *fastConn) parseSubmit(fb *frameBuf, body []byte) ([]fastSub, bool) {
	count, body, ok := fpUvarint(body)
	// count comes from an unauthenticated peer. A submission is at least
	// its four uvarint headers, so a count the body cannot hold is refused
	// outright, and the pre-size stops at one ack frame's worth: at 64 B
	// per entry, sizing from count alone let one 16 MiB frame demand 1 GiB.
	if !ok || count > uint64(len(body))/4 {
		return nil, false
	}
	subs := make([]fastSub, 0, min(count, fpMaxAcks))
	for i := uint64(0); i < count; i++ {
		var seq, user, round, wlen uint64
		if seq, body, ok = fpUvarint(body); !ok {
			return nil, false
		}
		if user, body, ok = fpUvarint(body); !ok {
			return nil, false
		}
		if round, body, ok = fpUvarint(body); !ok {
			return nil, false
		}
		if wlen, body, ok = fpUvarint(body); !ok || wlen > uint64(len(body)) {
			return nil, false
		}
		subs = append(subs, fastSub{
			fc:    fc,
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

// sendInfo answers an info-req with the open round (and trustee key).
func (fc *fastConn) sendInfo() {
	var round uint64
	var tkey []byte
	if svc := fc.fp.srv.svc.Load(); svc != nil {
		if id, key, err := svc.Current(); err == nil {
			round, tkey = id, key
		}
	}
	body := make([]byte, 0, 16+len(tkey))
	body = append(body, fpTypeInfoReply)
	body = binary.AppendUvarint(body, round)
	body = binary.AppendUvarint(body, uint64(len(tkey)))
	body = append(body, tkey...)
	fc.writeFrame(body)
}

// writeFrame writes one length-prefixed frame; a failed write drops the
// connection (the reader notices on its next read).
func (fc *fastConn) writeFrame(payload []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if _, err := fc.c.Write(hdr[:]); err != nil {
		fc.shut()
		return
	}
	if _, err := fc.c.Write(payload); err != nil {
		fc.shut()
	}
}

// ackLoop coalesces queued acknowledgments into fpAck frames: one write
// covers however many verdicts have accumulated since the last.
func (fc *fastConn) ackLoop() {
	buf := make([]byte, 0, 4096)
	pending := make([]fpAck, 0, 256)
	for ack := range fc.acks {
		pending = append(pending[:0], ack)
	drain:
		for len(pending) < fpMaxAcks {
			select {
			case more, ok := <-fc.acks:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		buf = appendAcks(append(buf[:0], fpTypeAck), pending)
		fc.writeFrame(buf)
	}
}

// appendAcks appends an ack frame's body: the count, then each verdict.
func appendAcks(buf []byte, acks []fpAck) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(acks)))
	for _, a := range acks {
		buf = binary.AppendUvarint(buf, a.seq)
		buf = taxonomy.AppendError(buf, a.err)
		buf = binary.AppendUvarint(buf, a.round)
	}
	return buf
}

// ack queues one verdict; a connection that stopped draining its acks
// (dead or pathologically slow peer) is dropped rather than allowed to
// stall the admission plane.
func (fc *fastConn) ack(a fpAck) {
	defer func() {
		// The reader closes fc.acks when the connection dies; a verdict
		// racing that close is for a peer that will never read it.
		_ = recover()
	}()
	select {
	case fc.acks <- a:
	default:
		fc.shut()
	}
}

// worker drains the admission queue: it greedily collects a batch (up to
// MaxBatch, lingering briefly when the queue runs dry) and flushes it
// through the service's batched admission.
func (fp *fastPath) worker() {
	defer fp.workers.Done()
	batch := make([]fastSub, 0, fp.opts.MaxBatch)
	for sub := range fp.queue {
		batch = append(batch[:0], sub)
	fill:
		for len(batch) < fp.opts.MaxBatch {
			select {
			case more, ok := <-fp.queue:
				if !ok {
					break fill
				}
				batch = append(batch, more)
			default:
				if fp.opts.Linger < 0 {
					break fill
				}
				t := time.NewTimer(fp.opts.Linger)
				select {
				case more, ok := <-fp.queue:
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
		fp.flush(batch)
	}
}

// flush admits one batch. Submissions are grouped by their round pin
// (almost always the whole batch targets round 0, the open round) and
// each group goes through the service's batched admission; every
// submission is acknowledged on its own connection and its frame
// reference released.
func (fp *fastPath) flush(batch []fastSub) {
	svc := fp.srv.svc.Load()
	if svc == nil {
		err := fmt.Errorf("daemon: not serving (no continuous service)")
		for _, sub := range batch {
			sub.fc.ack(fpAck{seq: sub.seq, err: err})
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
			sub.fc.ack(fpAck{seq: sub.seq, round: rounds[k], err: errs[k]})
			sub.frame.release()
		}
	}
}

// fpUvarint decodes one uvarint off the front of b.
func fpUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}
