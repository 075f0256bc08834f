package daemon

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"atom/internal/taxonomy"
)

// FastClient speaks the daemon's binary fast path: thousands of logical
// clients multiplex one TCP connection, submits are pipelined without
// per-message round trips, and verdicts arrive asynchronously through
// per-submission callbacks as the server's coalesced ack frames land.
// All methods are safe for concurrent use.
type FastClient struct {
	conn net.Conn

	// wmu guards the write side: the pending submit frame under
	// construction and the socket itself.
	wmu     sync.Mutex
	entries []byte
	count   int
	werr    error

	// pmu guards the callback table.
	pmu     sync.Mutex
	pending map[uint64]func(round uint64, err error)
	seq     uint64
	closed  bool

	// info serializes ServeInfo round trips over the shared connection.
	infoMu sync.Mutex
	infoCh chan *RoundInfo

	stop     chan struct{}
	stopOnce sync.Once
}

// flushBytes is the pending-frame size that triggers an inline flush;
// below it the background flusher (or an explicit Flush) sends the
// stragglers.
const flushBytes = 32 << 10

// DialFast connects to a daemon's fast-path listener (Info.SubmitAddr).
func DialFast(addr string) (*FastClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := &FastClient{
		conn:    conn,
		pending: make(map[uint64]func(uint64, error)),
		infoCh:  make(chan *RoundInfo, 1),
		stop:    make(chan struct{}),
	}
	if err := fc.writeFrame(append([]byte{fpTypeHello}, fpMagic...)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go fc.readLoop()
	go fc.flushLoop()
	return fc, nil
}

// Submit pipelines one wire-encoded submission for the given logical
// user into the given round (0 = whichever round is open). done fires
// exactly once — with the admitting round, or with the same typed error
// the gob SubmitInto surface returns — from the client's reader
// goroutine, so keep it cheap. Submissions buffer until flushBytes
// accumulate, the background flusher fires, or Flush is called.
func (fc *FastClient) Submit(round uint64, user int, wire []byte, done func(round uint64, err error)) {
	fc.pmu.Lock()
	if fc.closed {
		fc.pmu.Unlock()
		done(0, fmt.Errorf("daemon: fast path connection closed"))
		return
	}
	fc.seq++
	seq := fc.seq
	fc.pending[seq] = done
	fc.pmu.Unlock()

	fc.wmu.Lock()
	if fc.werr != nil {
		err := fc.werr
		fc.wmu.Unlock()
		fc.fail(seq, err)
		return
	}
	fc.entries = binary.AppendUvarint(fc.entries, seq)
	fc.entries = binary.AppendUvarint(fc.entries, uint64(user))
	fc.entries = binary.AppendUvarint(fc.entries, round)
	fc.entries = binary.AppendUvarint(fc.entries, uint64(len(wire)))
	fc.entries = append(fc.entries, wire...)
	fc.count++
	var err error
	if len(fc.entries) >= flushBytes {
		err = fc.flushLocked()
	}
	fc.wmu.Unlock()
	if err != nil {
		fc.failAll(err)
	}
}

// Flush sends any buffered submissions now.
func (fc *FastClient) Flush() error {
	fc.wmu.Lock()
	err := fc.flushLocked()
	fc.wmu.Unlock()
	if err != nil {
		fc.failAll(err)
	}
	return err
}

func (fc *FastClient) flushLocked() error {
	if fc.werr != nil {
		return fc.werr
	}
	if fc.count == 0 {
		return nil
	}
	payload := make([]byte, 0, 16+len(fc.entries))
	payload = append(payload, fpTypeSubmit)
	payload = binary.AppendUvarint(payload, uint64(fc.count))
	payload = append(payload, fc.entries...)
	fc.entries = fc.entries[:0]
	fc.count = 0
	return fc.writeFrameLocked(payload)
}

// flushLoop drains stragglers that never reached flushBytes, so a
// trickling submitter still sees bounded latency.
func (fc *FastClient) flushLoop() {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = fc.Flush()
		case <-fc.stop:
			return
		}
	}
}

func (fc *FastClient) writeFrame(payload []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	return fc.writeFrameLocked(payload)
}

func (fc *FastClient) writeFrameLocked(payload []byte) error {
	if fc.werr != nil {
		return fc.werr
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := fc.conn.Write(hdr[:]); err != nil {
		fc.werr = err
		return err
	}
	if _, err := fc.conn.Write(payload); err != nil {
		fc.werr = err
		return err
	}
	return nil
}

// ServeInfo fetches the open round (and, trap variant, its trustee key)
// over the fast path. One info request is in flight at a time.
func (fc *FastClient) ServeInfo(ctx context.Context) (*RoundInfo, error) {
	fc.infoMu.Lock()
	defer fc.infoMu.Unlock()
	if err := fc.writeFrame([]byte{fpTypeInfoReq}); err != nil {
		return nil, err
	}
	select {
	case ri, ok := <-fc.infoCh:
		if !ok {
			return nil, fmt.Errorf("daemon: fast path connection closed")
		}
		return ri, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// readLoop parses ack and info frames, dispatching verdicts to their
// callbacks.
func (fc *FastClient) readLoop() {
	var hdr [4]byte
	buf := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(fc.conn, hdr[:]); err != nil {
			fc.failAll(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > fpMaxFrame {
			fc.failAll(fmt.Errorf("daemon: fast path frame of %d bytes", n))
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(fc.conn, buf); err != nil {
			fc.failAll(err)
			return
		}
		typ, body := buf[0], buf[1:]
		switch typ {
		case fpTypeAck:
			if !fc.handleAcks(body) {
				fc.failAll(fmt.Errorf("daemon: malformed fast path ack"))
				return
			}
		case fpTypeInfoReply:
			round, rest, ok := fpUvarint(body)
			if !ok {
				fc.failAll(fmt.Errorf("daemon: malformed fast path info"))
				return
			}
			klen, rest, ok := fpUvarint(rest)
			if !ok || klen > uint64(len(rest)) {
				fc.failAll(fmt.Errorf("daemon: malformed fast path info"))
				return
			}
			ri := &RoundInfo{ID: round}
			if klen > 0 {
				ri.TrusteeKey = append([]byte(nil), rest[:klen]...)
			}
			select {
			case fc.infoCh <- ri:
			default: // no ServeInfo waiting; drop
			}
		}
	}
}

// handleAcks parses one ack frame's body — server bytes — and settles
// each verdict's callback; false means the body is malformed.
func (fc *FastClient) handleAcks(body []byte) bool {
	count, body, ok := fpUvarint(body)
	if !ok {
		return false
	}
	for i := uint64(0); i < count; i++ {
		var seq, round uint64
		var err error
		if seq, body, ok = fpUvarint(body); !ok {
			return false
		}
		if err, body, ok = taxonomy.ReadError(body); !ok {
			return false
		}
		if round, body, ok = fpUvarint(body); !ok {
			return false
		}
		fc.pmu.Lock()
		done, found := fc.pending[seq]
		delete(fc.pending, seq)
		fc.pmu.Unlock()
		if found {
			done(round, err)
		}
	}
	return true
}

// fail settles a single submission whose write never made it out.
func (fc *FastClient) fail(seq uint64, err error) {
	fc.pmu.Lock()
	done, found := fc.pending[seq]
	delete(fc.pending, seq)
	fc.pmu.Unlock()
	if found {
		done(0, fmt.Errorf("daemon: fast path send: %w", err))
	}
}

// failAll settles every outstanding submission after the connection
// died; later Submits fail immediately.
func (fc *FastClient) failAll(err error) {
	fc.pmu.Lock()
	if fc.closed {
		fc.pmu.Unlock()
		return
	}
	fc.closed = true
	callbacks := make([]func(uint64, error), 0, len(fc.pending))
	for seq, done := range fc.pending {
		callbacks = append(callbacks, done)
		delete(fc.pending, seq)
	}
	fc.pmu.Unlock()
	werr := fmt.Errorf("daemon: fast path connection lost: %w", err)
	for _, done := range callbacks {
		done(0, werr)
	}
	close(fc.infoCh)
}

// Close tears the connection down; outstanding submissions fail.
func (fc *FastClient) Close() error {
	fc.stopOnce.Do(func() { close(fc.stop) })
	err := fc.conn.Close()
	fc.failAll(fmt.Errorf("client closed"))
	return err
}
