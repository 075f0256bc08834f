package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"atom/internal/taxonomy"
)

// Every TCP connection either plane opens — a client to its daemon, a
// member to a member or to the coordinator — starts with one hello from
// the dialer and one verdict from the acceptor:
//
//	hello   := "ATOM" ‖ version ‖ u8 len(addr) ‖ addr
//	verdict := internal/taxonomy wire error        (the lone byte 0 accepts)
//
// addr is the dialer's listen address on a member link, and empty from a
// client. The link, not each frame, names the sender: a TCPNode stamps
// every frame read off an accepted connection with the hello's address.
// A hello with another version, or without the magic, is refused with
// taxonomy.ErrProtocolVersion, so a skewed peer fails with a typed error
// instead of misreading frames. The dialer waits for the verdict: one
// round trip per long-lived connection.
const (
	// Version is the wire protocol version this build speaks on both
	// planes. Bump it whenever a frame layout changes.
	Version byte = 1

	helloMagic = "ATOM"
	// helloTimeout bounds the hello exchange on both sides: a peer that
	// connects and never speaks must not pin the acceptor's goroutine,
	// nor one that never answers the dialer.
	helloTimeout = 10 * time.Second
	// maxVerdict bounds a refusal's wire error.
	maxVerdict = 4 << 10
)

// AppendHello appends the hello a dialer with listen address addr (empty
// for a client) opens its connection with.
func AppendHello(b []byte, addr string) []byte {
	b = append(b, helloMagic...)
	b = append(b, Version, byte(len(addr)))
	return append(b, addr...)
}

// ReadHello reads one hello off r and returns the dialer's address. A
// wrong magic or version is an error matching taxonomy.ErrProtocolVersion
// — the refusal to send back; any other error is a read failure.
func ReadHello(r io.Reader) (string, error) {
	var head [len(helloMagic) + 2]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return "", err
	}
	if string(head[:len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("%w: the connection did not open with an Atom hello", taxonomy.ErrProtocolVersion)
	}
	if v := head[len(helloMagic)]; v != Version {
		return "", fmt.Errorf("%w: peer speaks wire protocol version %d, this build speaks %d", taxonomy.ErrProtocolVersion, v, Version)
	}
	addr := make([]byte, head[len(helloMagic)+1])
	if _, err := io.ReadFull(r, addr); err != nil {
		return "", err
	}
	return string(addr), nil
}

// DialHello dials addr, sends the hello naming self, and waits for the
// acceptor's verdict, all bounded by ctx (and helloTimeout). A refusal
// comes back as the acceptor's typed error.
func DialHello(ctx context.Context, addr, self string) (net.Conn, error) {
	if len(self) > 255 {
		return nil, fmt.Errorf("transport: listen address %q too long for a hello", self)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	deadline := time.Now().Add(helloTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	_ = conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	err = exchangeHello(conn, self)
	if !stop() && err == nil {
		err = ctx.Err() // the watcher may have expired the deadline already
	}
	if err != nil {
		_ = conn.Close()
		if ctx.Err() != nil {
			err = ctx.Err()
		} else if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			err = context.DeadlineExceeded // the socket deadline fired first
		}
		return nil, fmt.Errorf("transport: hello to %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// exchangeHello is the dialer's half: write the hello, read the verdict.
func exchangeHello(conn net.Conn, self string) error {
	if _, err := conn.Write(AppendHello(nil, self)); err != nil {
		return err
	}
	n, err := binary.ReadUvarint(byteReader{conn})
	if err != nil {
		return err
	}
	if n > maxVerdict {
		return errors.New("malformed verdict")
	}
	verdict := binary.AppendUvarint(nil, n)
	verdict = append(verdict, make([]byte, n)...)
	if _, err := io.ReadFull(conn, verdict[len(verdict)-int(n):]); err != nil {
		return err
	}
	refusal, _, ok := taxonomy.ReadError(verdict)
	if !ok {
		return errors.New("malformed verdict")
	}
	return refusal
}

// byteReader reads one byte at a time, so decoding the verdict's length
// never consumes a byte past it.
type byteReader struct{ io.Reader }

func (r byteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r.Reader, b[:])
	return b[0], err
}

// AcceptHello is the acceptor's half: it reads the hello off a freshly
// accepted connection and answers it, returning the dialer's address —
// which a member link (member true) must name. On a refusal it has
// already sent the verdict; the caller closes the connection either way
// an error comes back.
func AcceptHello(conn net.Conn, member bool) (string, error) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	addr, err := ReadHello(conn)
	if err != nil && !errors.Is(err, taxonomy.ErrProtocolVersion) {
		return "", err // nothing to answer: the dialer went away
	}
	if err == nil && member && addr == "" {
		err = errors.New("transport: a member link must name its listen address")
	}
	if _, werr := conn.Write(taxonomy.AppendError(nil, err)); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return "", err
	}
	_ = conn.SetDeadline(time.Time{})
	return addr, nil
}
