package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"atom/internal/taxonomy"
)

func TestMemNetworkBasicDelivery(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &Message{Type: "ping", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Type != "ping" || msg.From != "a" || msg.To != "b" || string(msg.Payload) != "hello" {
		t.Fatalf("unexpected message: %+v", msg)
	}
}

func TestMemNetworkUnknownDestination(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	if err := a.Send("ghost", &Message{Type: "x"}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestMemNetworkDuplicateAttach(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	if _, err := net.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("a"); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestMemNetworkCloseSemantics(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &Message{Type: "x"}); err == nil {
		t.Fatal("send to closed node succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	a.Close()
	if err := a.Send("b", &Message{Type: "x"}); err == nil {
		t.Fatal("send from closed endpoint succeeded")
	}
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("closed inbox should be drained and closed")
	}
}

func TestMemNetworkStatsAccounting(t *testing.T) {
	net := NewMemNetwork(nil, 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := a.Send("b", &Message{Type: "data", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		<-b.Inbox()
	}
	sa := net.Stats("a")
	sb := net.Stats("b")
	if sa.MessagesSent != 5 {
		t.Errorf("a sent %d messages, want 5", sa.MessagesSent)
	}
	if sa.BytesSent < 500 {
		t.Errorf("a sent %d bytes, want ≥ 500", sa.BytesSent)
	}
	if sb.BytesReceived != sa.BytesSent {
		t.Errorf("received %d ≠ sent %d", sb.BytesReceived, sa.BytesSent)
	}
	if net.TotalBytes() != sa.BytesSent {
		t.Errorf("total %d ≠ %d", net.TotalBytes(), sa.BytesSent)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	const delay = 30 * time.Millisecond
	net := NewMemNetwork(UniformLatency(delay), 16)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	start := time.Now()
	a.Send("b", &Message{Type: "timed"})
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("message arrived after %v, want ≥ %v", elapsed, delay)
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	net := NewMemNetwork(nil, 4096)
	recv, _ := net.Attach("sink")
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Attach(fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send("sink", &Message{Type: "burst"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		select {
		case <-recv.Inbox():
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d/%d messages arrived", i, senders*per)
		}
	}
}

func TestPairwiseLatencyProperties(t *testing.T) {
	f := PairwiseLatency("seed", 40*time.Millisecond, 160*time.Millisecond)
	if f("a", "a") != 0 {
		t.Error("self-latency should be 0")
	}
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		from := fmt.Sprintf("n%d", i)
		to := fmt.Sprintf("n%d", i+1)
		d := f(from, to)
		if d < 40*time.Millisecond || d >= 160*time.Millisecond {
			t.Errorf("latency %v outside [40ms,160ms)", d)
		}
		if d != f(to, from) {
			t.Error("latency should be symmetric")
		}
		seen[d] = true
	}
	if len(seen) < 5 {
		t.Error("latencies suspiciously uniform; hashing may be broken")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), &Message{Type: "bulk", Round: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Inbox():
		if msg.Type != "bulk" || msg.Round != 3 || len(msg.Payload) != len(payload) {
			t.Fatalf("unexpected message: type=%s round=%d len=%d", msg.Type, msg.Round, len(msg.Payload))
		}
		for i := range payload {
			if msg.Payload[i] != payload[i] {
				t.Fatalf("payload corrupted at byte %d", i)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestTCPBidirectionalAndReuse(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	defer a.Close()
	b, _ := ListenTCP("127.0.0.1:0", 16)
	defer b.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), &Message{Type: "seq", Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg := <-b.Inbox()
		if msg.Round != uint64(i) {
			t.Fatalf("out of order: got round %d at position %d", msg.Round, i)
		}
	}
	// Reply path.
	if err := b.Send(a.Addr(), &Message{Type: "ack"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-a.Inbox():
		if msg.Type != "ack" {
			t.Fatalf("unexpected reply %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply never arrived")
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	b, _ := ListenTCP("127.0.0.1:0", 16)
	a.Close()
	if err := a.Send(b.Addr(), &Message{Type: "x"}); err == nil {
		t.Fatal("send after close succeeded")
	}
	b.Close()
}

func TestTCPDialFailure(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 16)
	defer a.Close()
	if err := a.Send("127.0.0.1:1", &Message{Type: "x"}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

// TestMemCloseUnblocksFullInboxPush exercises the close-while-blocked
// path: a sender stuck on a full inbox must exit cleanly with ErrClosed
// when the destination closes, instead of panicking on a closed channel.
func TestMemCloseUnblocksFullInboxPush(t *testing.T) {
	net := NewMemNetwork(nil, 1)
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	if err := a.Send("b", &Message{Type: "fill"}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Send("b", &Message{Type: "blocked"}) }()
	// Give the sender time to block on the full inbox, then close.
	time.Sleep(20 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked push returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push never unblocked after Close")
	}
}

// TestMemSendCtxCancellation verifies a blocked SendCtx gives up with
// the context's error.
func TestMemSendCtxCancellation(t *testing.T) {
	net := NewMemNetwork(nil, 1)
	a, _ := net.Attach("a")
	net.Attach("b")
	if err := a.Send("b", &Message{Type: "fill"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := a.SendCtx(ctx, "b", &Message{Type: "blocked"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendCtx returned %v, want DeadlineExceeded", err)
	}
}

// TestTCPFrameTooLargeWrite checks the typed error on oversized writes
// (and that the connection survives, since nothing hit the wire).
func TestTCPFrameTooLargeWrite(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 4)
	b, _ := ListenTCP("127.0.0.1:0", 4)
	defer a.Close()
	defer b.Close()
	a.maxFrame, b.maxFrame = 1<<10, 1<<10
	err := a.Send(b.Addr(), &Message{Type: "big", Payload: make([]byte, 1<<11)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send returned %v, want ErrFrameTooLarge", err)
	}
	if err := a.Send(b.Addr(), &Message{Type: "small", Payload: []byte("ok")}); err != nil {
		t.Fatalf("small send after oversized rejection: %v", err)
	}
	select {
	case msg := <-b.Inbox():
		if msg.Type != "small" {
			t.Fatalf("got %q, want the small frame", msg.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("small frame never arrived")
	}
}

// TestTCPFrameTooLargeRead checks a hostile length prefix is rejected
// before allocation: the reader's limit is lower than the writer's.
func TestTCPFrameTooLargeRead(t *testing.T) {
	b, _ := ListenTCP("127.0.0.1:0", 4)
	defer b.Close()
	b.maxFrame = 256
	a, _ := ListenTCP("127.0.0.1:0", 4)
	defer a.Close()
	a.maxFrame = 1 << 20
	if err := a.Send(b.Addr(), &Message{Type: "big", Payload: make([]byte, 4096)}); err != nil {
		t.Fatalf("send within the writer's limit: %v", err)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("oversized frame was delivered: %+v", msg)
	case <-time.After(150 * time.Millisecond):
		// Dropped before allocation, connection torn down: correct.
	}
}

// TestTCPCloseUnblocksFullInbox: a reader blocked delivering into a
// full inbox nobody drains must not hold Close up — the TCP twin of
// TestMemCloseUnblocksFullInboxPush.
func TestTCPCloseUnblocksFullInbox(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Addr(), &Message{Type: "fill", Round: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the inbox is full: the reader is then parked on the
	// second frame.
	for deadline := time.Now().Add(5 * time.Second); len(b.Inbox()) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no frame arrived")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hangs behind a reader blocked on the full inbox")
	}
}

// TestTCPLinkNamesSender: the receiver stamps From with the address the
// sender's hello named and To with its own — nothing in the frame — and
// refuses a hello that names no sender.
func TestTCPLinkNamesSender(t *testing.T) {
	a, _ := ListenTCP("127.0.0.1:0", 4)
	defer a.Close()
	b, _ := ListenTCP("127.0.0.1:0", 4)
	defer b.Close()
	if c, err := DialHello(t.Context(), b.Addr(), ""); err == nil {
		c.Close()
		t.Fatal("a member accepted a hello naming no sender")
	}
	if err := a.Send(b.Addr(), &Message{Type: "x", From: "forged", To: "elsewhere"}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Inbox():
		if msg.From != a.Addr() || msg.To != b.Addr() {
			t.Fatalf("From %q To %q, want %q and %q", msg.From, msg.To, a.Addr(), b.Addr())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

// TestTCPVersionSkew: over real TCP, a node refuses a hello of another
// version with taxonomy.ErrProtocolVersion and delivers nothing from
// that connection, and a node dialing a peer of another version fails
// its send with the same typed error, which Unreachable does not count
// as a dead peer.
func TestTCPVersionSkew(t *testing.T) {
	b, _ := ListenTCP("127.0.0.1:0", 4)
	defer b.Close()
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := AppendHello(nil, "127.0.0.1:1")
	hello[len(helloMagic)]++
	if _, err := c.Write(append(hello, 0, 0, 0, 3, 1, 'x', 0)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	verdict, _ := io.ReadAll(c)
	if refusal, _, ok := taxonomy.ReadError(verdict); !ok || !errors.Is(refusal, taxonomy.ErrProtocolVersion) {
		t.Fatalf("a next-version hello got verdict %x (%v)", verdict, refusal)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("a refused connection delivered %+v", msg)
	case <-time.After(50 * time.Millisecond):
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := ReadHello(c); err == nil {
			_, _ = c.Write(taxonomy.AppendError(nil, fmt.Errorf("%w: peer speaks wire protocol version %d, this build speaks %d",
				taxonomy.ErrProtocolVersion, Version, Version+1)))
		}
	}()
	a, _ := ListenTCP("127.0.0.1:0", 4)
	defer a.Close()
	err = a.Send(ln.Addr().String(), &Message{Type: "x"})
	if !errors.Is(err, taxonomy.ErrProtocolVersion) || Unreachable(err) {
		t.Fatalf("send to a next-version peer: %v (unreachable %v), want ErrProtocolVersion, not unreachable", err, Unreachable(err))
	}
}

// FuzzHello: the hello reader takes the first bytes of every accepted
// connection, from anyone. It never panics, refuses anything but a
// well-formed current-version hello with a typed or read error, and
// what it accepts re-encodes to the bytes it read.
func FuzzHello(f *testing.F) {
	f.Add(AppendHello(nil, "127.0.0.1:9100"))
	f.Add(AppendHello(nil, ""))
	f.Add([]byte("ATOM\x02\x00"))
	f.Add([]byte("ATOM\x01\xff"))
	f.Add([]byte{0, 0, 0, 8, 1, 'A', 'T', 'O', 'M', 'F', 'P', '2'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		addr, err := ReadHello(r)
		if err != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		if !bytes.Equal(AppendHello(nil, addr), used) {
			t.Fatalf("hello %x read as %q, which re-encodes differently", used, addr)
		}
	})
}

// FuzzEnvelope: the member envelope decoder reads peer bytes. It never
// panics, and what it accepts re-encodes to the same bytes whenever the
// input used minimal uvarints.
func FuzzEnvelope(f *testing.F) {
	f.Add(appendEnvelope(nil, &Message{Type: "dist/batch", Round: 7 << 8, Payload: []byte{1, 2, 3}}))
	f.Add(appendEnvelope(nil, &Message{Type: "", Round: 0}))
	f.Add([]byte{0x80})
	f.Add([]byte{5, 'a'})
	f.Add([]byte{1, 'a', 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, ok := parseEnvelope(data)
		if !ok {
			return
		}
		enc := appendEnvelope(nil, msg)
		if len(enc) > len(data) {
			t.Fatalf("%x decoded to %+v, whose encoding is longer", data, msg)
		}
		again, ok := parseEnvelope(enc)
		if !ok || again.Type != msg.Type || again.Round != msg.Round || !bytes.Equal(again.Payload, msg.Payload) {
			t.Fatalf("%+v does not survive a re-encode", msg)
		}
	})
}
