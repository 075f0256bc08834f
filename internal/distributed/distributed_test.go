package distributed

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/taxonomy"
	"atom/internal/transport"
	"atom/internal/wirecodec"
)

// testConfig is small enough for -race CI but still a real network:
// 3 groups of 2 members over a 3-iteration square lattice.
func testConfig(variant protocol.Variant, workers int) protocol.Config {
	return protocol.Config{
		NumServers:  12,
		NumGroups:   3,
		GroupSize:   2,
		MessageSize: 24,
		Variant:     variant,
		Iterations:  3,
		Mix:         protocol.MixConfig{Workers: workers},
		Seed:        []byte("distributed-test"),
	}
}

func newDeployment(t testing.TB, variant protocol.Variant, workers int) (*protocol.Deployment, *protocol.Client) {
	t.Helper()
	cfg := testConfig(variant, workers)
	d, err := protocol.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := d.Config()
	c, err := protocol.NewClient(&vcfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// submitAll puts n distinct messages into rs and returns the sorted
// plaintext set a successful round must recover.
func submitAll(t *testing.T, d *protocol.Deployment, c *protocol.Client, rs *protocol.RoundState, n int) [][]byte {
	t.Helper()
	var want [][]byte
	for u := 0; u < n; u++ {
		gid := u % d.NumGroups()
		gpk, err := d.GroupPK(gid)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte(fmt.Sprintf("msg-%02d", u))
		want = append(want, msg)
		switch rs.Variant() {
		case protocol.VariantNIZK:
			sub, err := c.Submit(msg, gpk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitUser(u, sub); err != nil {
				t.Fatal(err)
			}
		case protocol.VariantTrap:
			tpk, err := rs.TrusteePK()
			if err != nil {
				t.Fatal(err)
			}
			sub, err := c.SubmitTrap(msg, gpk, tpk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitTrapUser(u, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	return want
}

func wanDelay() transport.LatencyFunc {
	// A scaled-down §6 WAN: deterministic pairwise latency, small
	// enough for CI but real enough to exercise delayed delivery and
	// cross-layer pipelining.
	return transport.PairwiseLatency("dist-test", time.Millisecond, 4*time.Millisecond)
}

// roundLink is one link the Seat state machine can mix over; a nil
// attach is the in-process by-reference link (RunRoundCtx).
type roundLink struct {
	name   string
	attach func() AttachFunc
}

var (
	localLink  = roundLink{"local", nil}
	memnetLink = roundLink{"memnet", func() AttachFunc { return MemAttach(transport.NewMemNetwork(wanDelay(), 256)) }}
	tcpLink    = roundLink{"tcp", func() AttachFunc { return TCPAttach("127.0.0.1") }}

	bothVariants = []protocol.Variant{protocol.VariantNIZK, protocol.VariantTrap}
)

// linkRound is one row of the link table: a fresh deployment with
// workers>1 inside the seats and the row's round runner.
type linkRound struct {
	link string
	d    *protocol.Deployment
	c    *protocol.Client
	run  func(context.Context, *protocol.RoundState, *protocol.RoundHooks) (*protocol.RoundResult, error)
}

// forEachLink runs check once per variant × link, as subtest
// "variant/link".
func forEachLink(t *testing.T, variants []protocol.Variant, links []roundLink, check func(*testing.T, *linkRound)) {
	for _, variant := range variants {
		for _, link := range links {
			t.Run(variant.String()+"/"+link.name, func(t *testing.T) {
				d, c := newDeployment(t, variant, 2)
				r := &linkRound{link: link.name, d: d, c: c, run: d.RunRoundCtx}
				if link.attach != nil {
					cluster, err := NewCluster(d, Options{Attach: link.attach(), Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					defer cluster.Close()
					r.run = cluster.Run
				}
				check(t, r)
			})
		}
	}
}

func (r *linkRound) open(t *testing.T, n int) (*protocol.RoundState, [][]byte) {
	t.Helper()
	rs, err := r.d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	return rs, submitAll(t, r.d, r.c, rs, n)
}

// honest runs one round of n submissions, which must recover exactly
// the submitted plaintext set.
func (r *linkRound) honest(t *testing.T, n int, hooks *protocol.RoundHooks) *protocol.RoundResult {
	t.Helper()
	rs, want := r.open(t, n)
	res, err := r.run(context.Background(), rs, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("%s: round recovered %q, want %q", r.link, res.Messages, want)
	}
	return res
}

// checkRound is the round check every row passes: exactly the submitted
// plaintext set comes out, IterationDone reports every layer in order,
// and every group's every layer is traced with its shuffles.
func checkRound(t *testing.T, r *linkRound) {
	var layers []int
	res := r.honest(t, 9, &protocol.RoundHooks{IterationDone: func(it protocol.IterationStats) {
		layers = append(layers, it.Layer)
	}})
	T, G := r.d.Topology().Iterations(), r.d.NumGroups()
	if len(layers) != T {
		t.Fatalf("IterationDone fired %d times, want %d", len(layers), T)
	}
	for i, layer := range layers {
		if layer != i {
			t.Fatalf("IterationDone reported layers %v, want 0…%d in order", layers, T-1)
		}
	}
	if len(res.Traces) != G*T {
		t.Fatalf("got %d traces, want %d", len(res.Traces), G*T)
	}
	for _, tr := range res.Traces {
		if tr.Shuffles == 0 {
			t.Fatalf("trace (g%d l%d) recorded no shuffles", tr.GID, tr.Layer)
		}
	}
}

// TestMemnetRoundMatchesInProcess: the same Seat state machine mixes
// over the in-process by-reference link and over the latency-modeled
// memnet, in both variants, and both pass the same round check.
func TestMemnetRoundMatchesInProcess(t *testing.T) {
	forEachLink(t, bothVariants, []roundLink{localLink, memnetLink}, checkRound)
}

// TestTCPRoundMatchesInProcess: the round check over TCP loopback, in
// both variants.
func TestTCPRoundMatchesInProcess(t *testing.T) {
	forEachLink(t, bothVariants, []roundLink{tcpLink}, checkRound)
}

// TestTamperBlameParity: on every link a tampered member is blamed with
// the same typed error, and an honest round then completes.
func TestTamperBlameParity(t *testing.T) {
	forEachLink(t, []protocol.Variant{protocol.VariantNIZK}, []roundLink{localLink, memnetLink, tcpLink},
		func(t *testing.T, r *linkRound) {
			const gid, member = 1, 1
			rs, _ := r.open(t, 6)
			r.d.SetAdversary(tamperAdversary(t, r.d, 1, gid, member))
			_, err := r.run(context.Background(), rs, nil)
			checkBlame(t, r.link, err, gid, member+1) // DVSS index of the chain position
			r.honest(t, 6, nil)
		})
}

// TestTrapVariantDistributed: the trap variant's finale (trap
// accounting, trustee decryption) runs in the shared MixSealed path,
// so a distributed trap round must also recover the plaintext set.
func TestTrapVariantDistributed(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantTrap, 2)
	cluster, err := NewCluster(d, Options{
		Attach:  MemAttach(transport.NewMemNetwork(wanDelay(), 256)),
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	res, err := cluster.Run(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("distributed trap round recovered %q, want %q", res.Messages, want)
	}
}

// TestUnevenLoadDistributed: all submissions through one entry group,
// so other groups start empty (the empty-batch pass-through path) and
// fill up as batches spread through the square network.
func TestUnevenLoadDistributed(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	cluster, err := NewCluster(d, Options{
		Attach: MemAttach(transport.NewMemNetwork(nil, 256)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	gpk, _ := d.GroupPK(0)
	for u := 0; u < 4; u++ {
		msg := []byte(fmt.Sprintf("solo-%d", u))
		want = append(want, msg)
		sub, err := c.Submit(msg, gpk, 0, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.SubmitUser(u, sub); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	res, err := cluster.Run(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("uneven round recovered %q, want %q", res.Messages, want)
	}
}

// tamperAdversary rerandomizes one ciphertext after the target member's
// shuffle — a shape-preserving corruption whose proof must be rejected.
func tamperAdversary(t *testing.T, d *protocol.Deployment, layer, gid, member int) *protocol.Adversary {
	t.Helper()
	gpk, err := d.GroupPK(gid)
	if err != nil {
		t.Fatal(err)
	}
	return &protocol.Adversary{
		Layer: layer, GID: gid, Member: member,
		Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
			if len(batch) < 1 {
				return nil
			}
			out := make([]elgamal.Vector, len(batch))
			copy(out, batch)
			dup, _, err := elgamal.RerandomizeVector(gpk, batch[0], rand.Reader)
			if err != nil {
				return nil
			}
			out[0] = dup
			return out
		},
	}
}

// checkBlame asserts the uniform typed abort: errors.Is on
// ErrProofRejected plus the offending group/member attribution.
func checkBlame(t *testing.T, path string, err error, wantGID, wantMember int) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: tampered round succeeded", path)
	}
	if !errors.Is(err, taxonomy.ErrProofRejected) {
		t.Fatalf("%s: got %v, want ErrProofRejected", path, err)
	}
	var blame *taxonomy.Blame
	if !errors.As(err, &blame) {
		t.Fatalf("%s: no Blame attribution in %v", path, err)
	}
	if blame.GID != wantGID || blame.Member != wantMember {
		t.Fatalf("%s: blamed group %d member %d, want group %d member %d",
			path, blame.GID, blame.Member, wantGID, wantMember)
	}
}

// TestRemoteHostedMember: one member is not hosted by the cluster but
// adopted from a HostMember loop (the atomd -member path), joined over
// the wire with its marshaled config.
func TestRemoteHostedMember(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	net := transport.NewMemNetwork(nil, 256)

	remoteEP, err := net.Attach("remote/host")
	if err != nil {
		t.Fatal(err)
	}
	hostDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { hostDone <- HostMember(ctx, remoteEP, HostOptions{}) }()

	cluster, err := NewCluster(d, Options{
		Attach: MemAttach(net),
		Remote: map[MemberID]string{{GID: 2, Pos: 1}: remoteEP.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	res, err := cluster.Run(context.Background(), rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("remote-member round recovered %q, want %q", res.Messages, want)
	}
	cancel()
	select {
	case <-hostDone:
	case <-time.After(5 * time.Second):
		t.Fatal("HostMember did not exit on cancel")
	}
}

// memberConfigVectors returns a fully populated join payload and the
// same record hand-encoded in the unversioned PR 10–12 layout, which
// carried one more int (a chunk size; 0 = off, 64) in front of
// Heartbeat.
func memberConfigVectors(t testing.TB) (real MemberConfig, stale [][]byte) {
	t.Helper()
	d, _ := newDeployment(t, protocol.VariantNIZK, 1)
	r, err := d.GroupRoster(0)
	if err != nil {
		t.Fatal(err)
	}
	pk0, _ := d.GroupPK(0)
	pk1, _ := d.GroupPK(1)
	pk2, _ := d.GroupPK(2)
	real = MemberConfig{
		GID: 0, Pos: 1,
		Indices: r.Indices, Secret: r.Secrets[1], EffPubs: r.EffPubs,
		GroupPK: r.PK,
		Peers:   []string{"a", "b"}, Entry: []string{"a", "c", "d"},
		Coordinator: "coord", Variant: protocol.VariantNIZK, Workers: 3,
		Topo:      TopoSpec{Name: "square", Groups: 3, Iterations: 3},
		Heartbeat: 250 * time.Millisecond,
		Escrows: []protocol.EscrowPiece{
			{GID: 1, Pos: 0, Piece: r.Secrets[0]},
			{GID: 2, Pos: 1, Piece: r.Secrets[1]},
		},
	}
	real.GroupPKs = append(real.GroupPKs, pk0, pk1, pk2)
	real.ConfigHash = bytes.Repeat([]byte{0xc4}, 32)

	var tail wirecodec.Enc
	tail.U64(uint64(real.Heartbeat))
	tail.U64(uint64(len(real.Escrows)))
	for _, esc := range real.Escrows {
		tail.I(esc.GID)
		tail.I(esc.Pos)
		tail.Scalar(esc.Piece)
	}
	tail.Bytes(real.ConfigHash)
	full := real.Marshal()
	head := full[:len(full)-len(tail.Out())]
	if !bytes.Equal(full[len(head):], tail.Out()) {
		t.Fatal("hand-encoded tail does not match MemberConfig.Marshal")
	}
	for _, chunk := range []int{0, 64} {
		var e wirecodec.Enc
		e.I(chunk)
		stale = append(stale, bytes.Join([][]byte{head, e.Out(), tail.Out()}, nil))
	}
	return real, stale
}

// TestMemberConfigWire round-trips the join payload and refuses a
// record persisted in the PR 10–12 layout rather than misreading it.
func TestMemberConfigWire(t *testing.T) {
	real, stale := memberConfigVectors(t)
	back, err := UnmarshalMemberConfig(real.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Marshal(), real.Marshal()) {
		t.Fatal("MemberConfig does not round-trip canonically")
	}
	if back.GID != real.GID || back.Pos != real.Pos || back.Workers != 3 ||
		back.Topo != real.Topo || !back.Secret.Equal(real.Secret) {
		t.Fatalf("decoded config differs: %+v", back)
	}
	if back.Heartbeat != real.Heartbeat || len(back.Escrows) != 2 ||
		back.Escrows[0].GID != 1 || back.Escrows[1].Pos != 1 ||
		!back.Escrows[0].Piece.Equal(real.Escrows[0].Piece) {
		t.Fatalf("churn fields did not round-trip: %+v", back)
	}
	for i, b := range stale {
		if c, err := UnmarshalMemberConfig(b); err == nil {
			t.Fatalf("PR 10–12 layout record %d decoded as %+v, want an error", i, c)
		}
	}
}

// TestPerRoundWorkersReachActors: a per-round SetMixConfig override
// must govern the actors' pools, not silently die at the coordinator —
// the distributed path reports the round's knob in its stats exactly
// like the in-process path. The same work record carries the members'
// hop-codec time back, so every layer (and every group that mixed)
// must report some.
func TestPerRoundWorkersReachActors(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantTrap, 1)
	cluster, err := NewCluster(d, Options{
		Attach:  MemAttach(transport.NewMemNetwork(nil, 256)),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	rs.SetMixConfig(protocol.MixConfig{Workers: 3})
	want := submitAll(t, d, c, rs, 6)
	var got []int
	var codec []time.Duration
	hooks := &protocol.RoundHooks{IterationDone: func(it protocol.IterationStats) {
		got = append(got, it.Workers)
		codec = append(codec, it.Codec)
	}}
	res, err := cluster.Run(context.Background(), rs, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("override round recovered %q, want %q", res.Messages, want)
	}
	for layer, w := range got {
		if w != 3 {
			t.Fatalf("iteration %d reports %d workers, want the per-round override 3", layer, w)
		}
	}
	traced := make([]time.Duration, len(codec))
	for _, tr := range res.Traces {
		if tr.Workers != 3 {
			t.Fatalf("trace (g%d l%d) reports %d workers, want 3", tr.GID, tr.Layer, tr.Workers)
		}
		if tr.Shuffles > 0 && tr.Codec <= 0 {
			t.Fatalf("trace (g%d l%d) mixed but reports no hop-codec time", tr.GID, tr.Layer)
		}
		traced[tr.Layer] += tr.Codec
	}
	for layer, c := range codec {
		if c <= 0 || c != traced[layer] {
			t.Fatalf("iteration %d reports %v of hop-codec time, its groups' traces %v", layer, c, traced[layer])
		}
	}
}

// TestHostileLayerDoesNotCrashActor: a chain message with an
// out-of-range layer (in-threat-model for a malicious member) must be
// rejected typed, not panic topology arithmetic; forged control frames
// and strangers' batches — for dead round ids and for the live round —
// must be ignored, and the cluster must complete an honest round.
func TestHostileLayerDoesNotCrashActor(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	net := transport.NewMemNetwork(nil, 256)
	cluster, err := NewCluster(d, Options{Attach: MemAttach(net)})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rogue, err := net.Attach("rogue")
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	victim := cluster.Addresses()[MemberID{GID: 0, Pos: 1}]
	for _, layer := range []int{-1, 99} {
		if err := rogue.Send(victim, &transport.Message{
			Type: msgShuffle, Round: 999,
			Payload: encodeShuffleMsg(layer, protocol.LayerWork{}, nil, nil, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Forged cancels and stops for upcoming round ids must not poison
	// the actors (rogue round-id blacklisting) or shut them down, and a
	// forged batch with a huge round id must not prune live state.
	for _, addr := range cluster.Addresses() {
		for round := uint64(1); round <= 20; round++ {
			if err := rogue.Send(addr, &transport.Message{Type: msgCancel, Round: round}); err != nil {
				t.Fatal(err)
			}
		}
		for _, src := range []int{-1, 0} {
			if err := rogue.Send(addr, &transport.Message{
				Type: msgBatch, Round: 1 << 60,
				Payload: encodeBatchMsg(0, src, 1, nil),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rogue.Send(addr, &transport.Message{Type: msgStop}); err != nil {
			t.Fatal(err)
		}
	}

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	// A stranger's well-formed batches for the live round must be dropped
	// unseen, not abort or blacklist it: one posing as the coordinator's
	// injection at a non-first member before the round, one naming an
	// out-of-range layer at a first member mid-round.
	wire := wireRound(rs.ID(), 0)
	if err := rogue.Send(victim, &transport.Message{
		Type: msgBatch, Round: wire, Payload: encodeBatchMsg(0, -1, 1, nil),
	}); err != nil {
		t.Fatal(err)
	}
	entry1 := cluster.Addresses()[MemberID{GID: 1, Pos: 0}]
	hooks := &protocol.RoundHooks{IterationDone: func(it protocol.IterationStats) {
		if it.Layer == 0 {
			_ = rogue.Send(entry1, &transport.Message{
				Type: msgBatch, Round: wire, Payload: encodeBatchMsg(99, 0, 1, nil),
			})
		}
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cluster.Run(ctx, rs, hooks)
	if err != nil {
		t.Fatalf("round after hostile frames failed: %v", err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("round after hostile frames recovered %q, want %q", res.Messages, want)
	}
}
