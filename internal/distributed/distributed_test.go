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

// TestMemnetRoundMatchesInProcess is the core parity check: the same
// deployment runs one round in-process and one round as message-passing
// actors over the latency-modeled in-memory network, with workers>1
// inside the member actors; both must recover exactly the submitted
// plaintext set.
func TestMemnetRoundMatchesInProcess(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 2)

	rs1, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs1, 9)
	res1, err := d.RunRoundCtx(context.Background(), rs1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Messages, want) {
		t.Fatalf("in-process round recovered %q, want %q", res1.Messages, want)
	}

	cluster, err := NewCluster(d, Options{
		Attach:  MemAttach(transport.NewMemNetwork(wanDelay(), 256)),
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs2, 9)
	var iterations int
	hooks := &protocol.RoundHooks{IterationDone: func(protocol.IterationStats) { iterations++ }}
	res2, err := cluster.Run(context.Background(), rs2, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Messages, want) {
		t.Fatalf("distributed round recovered %q, want %q", res2.Messages, want)
	}
	if iterations != d.Topology().Iterations() {
		t.Fatalf("IterationDone fired %d times, want %d", iterations, d.Topology().Iterations())
	}
	if len(res2.Traces) != d.Topology().Iterations()*d.NumGroups() {
		t.Fatalf("got %d traces, want %d", len(res2.Traces), d.Topology().Iterations()*d.NumGroups())
	}
	var shuffles int
	for _, tr := range res2.Traces {
		shuffles += tr.Shuffles
	}
	if shuffles == 0 {
		t.Fatal("distributed traces recorded no shuffles")
	}
}

// TestTCPRoundMatchesInProcess runs the same parity check over real TCP
// loopback sockets: every member actor on its own TCP endpoint.
func TestTCPRoundMatchesInProcess(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 2)

	rs1, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs1, 9)
	res1, err := d.RunRoundCtx(context.Background(), rs1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Messages, want) {
		t.Fatalf("in-process round recovered %q, want %q", res1.Messages, want)
	}

	cluster, err := NewCluster(d, Options{Attach: TCPAttach("127.0.0.1"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs2, 9)
	res2, err := cluster.Run(context.Background(), rs2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Messages, want) {
		t.Fatalf("TCP round recovered %q, want %q", res2.Messages, want)
	}
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
	if !errors.Is(err, protocol.ErrProofRejected) {
		t.Fatalf("%s: got %v, want ErrProofRejected", path, err)
	}
	var blame *protocol.Blame
	if !errors.As(err, &blame) {
		t.Fatalf("%s: no Blame attribution in %v", path, err)
	}
	if blame.GID != wantGID || blame.Member != wantMember {
		t.Fatalf("%s: blamed group %d member %d, want group %d member %d",
			path, blame.GID, blame.Member, wantGID, wantMember)
	}
}

// TestTamperBlameParity: a tampered member triggers the same typed
// blame error — errors.Is(ErrProofRejected) with the same group/member
// attached — whether the round ran in-process, over the latency memnet,
// or over TCP loopback.
func TestTamperBlameParity(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 2)
	const gid, member = 1, 1
	wantIdx := member + 1 // DVSS index of the chain position

	// Path 1: in-process.
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs, 6)
	d.SetAdversary(tamperAdversary(t, d, 1, gid, member))
	_, err = d.RunRoundCtx(context.Background(), rs, nil)
	checkBlame(t, "in-process", err, gid, wantIdx)

	// Path 2: memnet actors.
	mem, err := NewCluster(d, Options{
		Attach:  MemAttach(transport.NewMemNetwork(wanDelay(), 256)),
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	rs, err = d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs, 6)
	d.SetAdversary(tamperAdversary(t, d, 1, gid, member))
	_, err = mem.Run(context.Background(), rs, nil)
	checkBlame(t, "memnet", err, gid, wantIdx)

	// The cluster must still complete an honest round after the abort.
	rs, err = d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	res, err := mem.Run(context.Background(), rs, nil)
	if err != nil {
		t.Fatalf("post-abort honest round failed: %v", err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("post-abort round recovered %q, want %q", res.Messages, want)
	}

	// Path 3: TCP actors.
	tcp, err := NewCluster(d, Options{Attach: TCPAttach("127.0.0.1"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	rs, err = d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs, 6)
	d.SetAdversary(tamperAdversary(t, d, 1, gid, member))
	_, err = tcp.Run(context.Background(), rs, nil)
	checkBlame(t, "tcp", err, gid, wantIdx)
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
// rejected typed, not panic topology arithmetic — and the cluster must
// still complete an honest round afterwards.
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
			Payload: encodeShuffleMsg(layer, work{}, nil, nil, nil),
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
	res, err := cluster.Run(context.Background(), rs, nil)
	if err != nil {
		t.Fatalf("round after hostile frames failed: %v", err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("round after hostile frames recovered %q, want %q", res.Messages, want)
	}
}
