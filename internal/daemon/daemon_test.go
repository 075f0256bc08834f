package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"atom"
	"atom/internal/transport"
)

func startServer(t *testing.T, variant atom.Variant) (*Server, atom.Config) {
	t.Helper()
	cfg := atom.Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: 32,
		Variant:     variant,
		Iterations:  2,
		Seed:        []byte("daemon-test"),
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, cfg
}

// sealAt returns service options under which a round seals exactly when
// its n-th submission is admitted, never on the clock.
func sealAt(n int) atom.ServeOptions {
	return atom.ServeOptions{RoundInterval: time.Hour, MaxBatch: n, MaxInFlight: 2}
}

func TestDaemonEndToEndNIZK(t *testing.T) {
	srv, cfg := startServeServer(t, atom.NIZK, sealAt(8))
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if info.Groups != 4 || info.MessageSize != 32 || info.Trap {
		t.Fatalf("unexpected info %+v", info)
	}
	if len(info.EntryKeys) != 4 {
		t.Fatalf("%d entry keys", len(info.EntryKeys))
	}

	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	var round uint64
	for u := 0; u < 8; u++ {
		gid := u % info.Groups
		msg := fmt.Sprintf("over the wire %d", u)
		want[msg] = true
		wire, err := ac.EncryptSubmission([]byte(msg), info.EntryKeys[gid], nil, gid)
		if err != nil {
			t.Fatal(err)
		}
		// NIZK encodings are round-independent: pin 0 is "whichever is open".
		if round, err = cli.SubmitInto(t.Context(), 0, u, wire); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := cli.Await(t.Context(), round)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8 {
		t.Fatalf("round returned %d messages", len(msgs))
	}
	for _, m := range msgs {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
	}
}

// submitTrapRound encrypts users messages "r<tag> u<i>" against the open
// round's trustee key and submits them pinned to that round.
func submitTrapRound(t *testing.T, cli *Client, ac *atom.Client, info *Info, ri *RoundInfo, tag, users int) {
	t.Helper()
	for u := 0; u < users; u++ {
		gid := u % info.Groups
		wire, err := ac.EncryptSubmission([]byte(fmt.Sprintf("r%d u%d", tag, u)), info.EntryKeys[gid], ri.TrusteeKey, gid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.SubmitInto(t.Context(), ri.ID, u, wire); err != nil {
			t.Fatal(err)
		}
	}
}

// nextRound polls ServeInfo until the open round is no longer prev.
func nextRound(t *testing.T, cli *Client, prev uint64) *RoundInfo {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ri, err := cli.ServeInfo(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if ri.ID != prev {
			return ri
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d never sealed", prev)
		}
	}
}

// TestDaemonEndToEndTrap runs two trap rounds back to back over the
// wire; the trustee key rotates per round, so each is fetched afresh.
func TestDaemonEndToEndTrap(t *testing.T) {
	srv, cfg := startServeServer(t, atom.Trap, sealAt(8))
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Trap {
		t.Fatalf("trap deployment not advertised: %+v", info)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := &RoundInfo{} // no round has id 0
	for round := 0; round < 2; round++ {
		ri := nextRound(t, cli, prev.ID)
		if len(ri.TrusteeKey) == 0 {
			t.Fatalf("round %d carries no trustee key", ri.ID)
		}
		if string(ri.TrusteeKey) == string(prev.TrusteeKey) {
			t.Fatalf("round %d reuses round %d's trustee key", ri.ID, prev.ID)
		}
		submitTrapRound(t, cli, ac, info, ri, round, 8)
		msgs, err := cli.Await(t.Context(), ri.ID)
		if err != nil {
			t.Fatalf("round %d: %v", ri.ID, err)
		}
		if len(msgs) != 8 {
			t.Fatalf("round %d returned %d messages", ri.ID, len(msgs))
		}
		prev = ri
	}
}

// TestDaemonPipelinedRounds: round r+1 opens and ingests over the wire
// while round r mixes. Round r's mix is held at its first iteration
// until every round-r+1 submission has been admitted, so ingestion that
// waited on the mixer would deadlock the test instead of passing it.
func TestDaemonPipelinedRounds(t *testing.T) {
	srv, cfg := startServeServer(t, atom.Trap, sealAt(4))
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := cli.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.Network().SetObserver(&atom.Observer{IterationDone: func(it atom.IterationStats) {
		if it.Round == r0.ID && it.Layer == 0 {
			select {
			case <-release:
			case <-time.After(30 * time.Second):
			}
		}
	}})

	submitTrapRound(t, cli, ac, info, r0, 0, 4) // seals r0; its mix starts and parks
	r1 := nextRound(t, cli, r0.ID)
	submitTrapRound(t, cli, ac, info, r1, 1, 4)
	if _, mixing := srv.Service().Pending(); mixing == 0 {
		t.Fatal("round 0 published before its mix was released")
	}
	close(release)

	mix0, err := cli.Await(t.Context(), r0.ID)
	if err != nil {
		t.Fatalf("round 0: %v", err)
	}
	if len(mix0) != 4 {
		t.Fatalf("round 0 returned %d messages", len(mix0))
	}
	mix1, err := cli.Await(t.Context(), r1.ID)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(mix1) != 4 {
		t.Fatalf("round 1 returned %d messages", len(mix1))
	}
	for _, m := range mix1 {
		if string(m)[:2] != "r1" {
			t.Fatalf("round 1 leaked message %q", m)
		}
	}
}

func TestDaemonTypedErrorsOverWire(t *testing.T) {
	srv, cfg := startServeServer(t, atom.NIZK, sealAt(64))
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SubmitInto(t.Context(), 0, 0, []byte("garbage")); !errors.Is(err, atom.ErrBadSubmission) {
		t.Fatalf("garbage submission: got %v, want ErrBadSubmission", err)
	}
	ac, _ := atom.NewClient(cfg)
	wire, err := ac.EncryptSubmission([]byte("dup"), info.EntryKeys[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	open, err := cli.SubmitInto(t.Context(), 0, 1, wire)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cli.SubmitInto(t.Context(), 0, 2, wire)
	if !errors.Is(err, atom.ErrDuplicateSubmission) || !errors.Is(err, atom.ErrBadSubmission) {
		t.Fatalf("replay: got %v, want ErrDuplicateSubmission (and ErrBadSubmission)", err)
	}
	// Awaiting a round the service has not opened yet cannot succeed: it
	// is refused at once, typed, instead of parking until the deadline.
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Second)
	defer cancel()
	if _, err := cli.Await(ctx, open+50); !errors.Is(err, atom.ErrRoundClosed) {
		t.Fatalf("await of unopened round %d: got %v, want ErrRoundClosed", open+50, err)
	}
}

// TestDaemonRetiredRequests: the request types of the retired
// one-shot and round-handle surfaces get the typed unknown-request reply
// an older atomclient can act on, and none of them seals the open round.
func TestDaemonRetiredRequests(t *testing.T) {
	srv, cfg := startServeServer(t, atom.NIZK, sealAt(64))
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := atom.NewClient(cfg)
	wire, err := ac.EncryptSubmission([]byte("still pending"), info.EntryKeys[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	open, err := cli.SubmitInto(t.Context(), 0, 0, wire)
	if err != nil {
		t.Fatal(err)
	}
	rid := binary.BigEndian.AppendUint64(nil, open)
	for typ, payload := range map[string][]byte{
		"run":          nil,
		"open":         nil,
		"mix":          rid,
		"submit":       append(binary.BigEndian.AppendUint64(nil, 1), wire...),
		"submit-round": append(binary.BigEndian.AppendUint64(rid, 1), wire...),
	} {
		_, err := cli.roundTrip(t.Context(), &transport.Message{Type: typ, Payload: payload})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown request %q", typ)) {
			t.Errorf("%s request: got %v, want the unknown-request error", typ, err)
		}
	}
	ri, err := cli.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if pending, queued := srv.Service().Pending(); ri.ID != open || pending != 1 || queued != 0 {
		t.Fatalf("open round %d (was %d) holds %d submissions, %d rounds sealed: a retired request acted", ri.ID, open, pending, queued)
	}
}

func TestDaemonClientDeadline(t *testing.T) {
	// A request to a black-hole address must fail by the context
	// deadline instead of hanging (the old client hung forever on a
	// dead server when its fixed timeout was disabled).
	cli, err := Dial("127.0.0.1:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetTimeout(0) // disable the default bound; rely on ctx only
	ctx, cancel := context.WithTimeout(t.Context(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Info(ctx)
	if err == nil {
		t.Fatal("Info against a dead server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honored: took %v", elapsed)
	}
}

// startServeServer builds a daemon with the continuous ingestion
// pipeline enabled.
func startServeServer(t *testing.T, variant atom.Variant, opts atom.ServeOptions) (*Server, atom.Config) {
	t.Helper()
	cfg := atom.Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: 32,
		Variant:     variant,
		Iterations:  2,
		Seed:        []byte("daemon-serve-test"),
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableService(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, cfg
}

// TestDaemonIngestDuplicateAcrossPipelinedRounds exercises the dedup
// policy through the wire path: the same ciphertext submitted twice
// into round r is rejected with ErrDuplicateSubmission, while the same
// bytes into round r+1 — opened while r mixes — are accepted once
// again: the duplicate filter is per round.
func TestDaemonIngestDuplicateAcrossPipelinedRounds(t *testing.T) {
	srv, cfg := startServeServer(t, atom.NIZK, atom.ServeOptions{
		RoundInterval: time.Hour, // sealing driven by MaxBatch only
		MaxBatch:      3,
		MaxInFlight:   2,
	})
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	info, err := cli.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ac.EncryptSubmission([]byte("wire replay"), info.EntryKeys[1], nil, 1)
	if err != nil {
		t.Fatal(err)
	}

	r1info, err := cli.ServeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := cli.SubmitInto(ctx, r1info.ID, 1, wire)
	if err != nil || admitted != r1info.ID {
		t.Fatalf("first submission into round %d: admitted=%d err=%v", r1info.ID, admitted, err)
	}
	// Replay into the same round: typed rejection through the wire.
	if _, err := cli.SubmitInto(ctx, r1info.ID, 2, wire); !errors.Is(err, atom.ErrDuplicateSubmission) {
		t.Fatalf("replay into round %d: %v, want ErrDuplicateSubmission", r1info.ID, err)
	}

	// Fill round r so it seals and r+1 opens (r still mixing or queued).
	var fill [][]byte
	for i := 0; i < 2; i++ {
		fill = append(fill, []byte(fmt.Sprintf("filler %d", i)))
	}
	if _, err := SubmitBatch(ctx, cli, ac, info, r1info, 10, fill); err != nil {
		t.Fatalf("filling round %d: %v", r1info.ID, err)
	}
	r2info := nextRound(t, cli, r1info.ID)

	// The same bytes into round r+1: accepted (dedup is per round).
	if _, err := cli.SubmitInto(ctx, r2info.ID, 3, wire); err != nil {
		t.Fatalf("replay into round %d: %v, want acceptance", r2info.ID, err)
	}
	// …and rejected again within r+1.
	if _, err := cli.SubmitInto(ctx, r2info.ID, 4, wire); !errors.Is(err, atom.ErrDuplicateSubmission) {
		t.Fatalf("second replay into round %d: %v, want ErrDuplicateSubmission", r2info.ID, err)
	}
	// Targeting the sealed round r fails typed over the wire.
	if _, err := cli.SubmitInto(ctx, r1info.ID, 5, wire); !errors.Is(err, atom.ErrRoundClosed) {
		t.Fatalf("submission into sealed round %d: %v, want ErrRoundClosed", r1info.ID, err)
	}

	// Fill round r+1 to its seal target so it publishes too.
	if _, err := SubmitBatch(ctx, cli, ac, info, r2info, 20, [][]byte{[]byte("filler r2"), []byte("filler r2b")}); err != nil {
		t.Fatalf("filling round %d: %v", r2info.ID, err)
	}

	// Both rounds publish; the replayed plaintext appears in each —
	// accepted exactly once per round.
	for _, rid := range []uint64{r1info.ID, r2info.ID} {
		msgs, err := cli.Await(ctx, rid)
		if err != nil {
			t.Fatalf("await round %d: %v", rid, err)
		}
		if !containsMsg(msgs, "wire replay") {
			t.Errorf("round %d output %q misses the replayed plaintext", rid, msgs)
		}
	}
}

func containsMsg(msgs [][]byte, want string) bool {
	for _, m := range msgs {
		if string(m) == want {
			return true
		}
	}
	return false
}
