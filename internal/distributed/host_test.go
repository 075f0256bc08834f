package distributed

import (
	"context"
	"reflect"
	"testing"

	"atom/internal/protocol"
	"atom/internal/transport"
)

// TestLocalMembersProvisionOverTheWire: a cluster with no remote hosts
// still configures every member through the handshake — before the first
// round the coordinator has sent exactly one config message per member
// and nothing else, and every member has received it and sent exactly
// one ack back. (Heartbeats are off so the counters see only the
// handshake.)
func TestLocalMembersProvisionOverTheWire(t *testing.T) {
	d, _ := newDeployment(t, protocol.VariantTrap, 1)
	net := transport.NewMemNetwork(nil, 256)
	cluster, err := NewCluster(d, Options{Attach: MemAttach(net), Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	members := cluster.Addresses()
	if want := d.NumGroups() * d.Config().GroupSize; len(members) != want {
		t.Fatalf("cluster provisioned %d members, want %d", len(members), want)
	}
	coord := net.Stats(cluster.CoordinatorAddr())
	if coord.MessagesSent != int64(len(members)) {
		t.Fatalf("coordinator sent %d messages, want one config per member (%d)", coord.MessagesSent, len(members))
	}
	var ackBytes int64
	for id, addr := range members {
		st := net.Stats(addr)
		if st.BytesReceived == 0 {
			t.Fatalf("g%d/m%d received no config message", id.GID, id.Pos)
		}
		if st.MessagesSent != 1 {
			t.Fatalf("g%d/m%d sent %d messages, want exactly its ack", id.GID, id.Pos, st.MessagesSent)
		}
		ackBytes += st.BytesSent
	}
	if coord.BytesReceived != ackBytes {
		t.Fatalf("coordinator received %d bytes, want the members' %d ack bytes", coord.BytesReceived, ackBytes)
	}
}

// hostOnMemnet starts one unconfigured HostMember on net and a rogue
// endpoint to heckle it from.
func hostOnMemnet(t *testing.T, net *transport.MemNetwork) (host, rogue transport.Endpoint) {
	t.Helper()
	host, err := net.Attach("remote/host")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = HostMember(ctx, host, HostOptions{}) }()
	if rogue, err = net.Attach("rogue"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rogue.Close() })
	return host, rogue
}

// runRound mixes one round over the cluster and checks the plaintext
// set.
func runRound(t *testing.T, d *protocol.Deployment, c *protocol.Client, cluster *Cluster) {
	t.Helper()
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
		t.Fatalf("round recovered %q, want %q", res.Messages, want)
	}
}

// TestUnconfiguredHostDropsRoundTraffic: a host that holds no config yet
// has no chain, no coordinator and no topology to interpret round
// traffic against — it must drop it (and a cancel, and an escrow
// solicitation) without panicking or answering, and still adopt the
// config that arrives afterwards.
func TestUnconfiguredHostDropsRoundTraffic(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	net := transport.NewMemNetwork(nil, 256)
	host, rogue := hostOnMemnet(t, net)

	for _, msg := range []*transport.Message{
		{Type: msgBatch, Round: 1 << 8, Payload: encodeBatchMsg(0, -1, 1, nil)},
		{Type: msgShuffle, Round: 1 << 8, Payload: encodeShuffleMsg(0, protocol.LayerWork{}, nil, nil, nil)},
		{Type: msgDivide, Round: 1 << 8, Payload: encodeShuffleMsg(0, protocol.LayerWork{}, nil, nil, nil)},
		{Type: msgReEnc, Round: 1 << 8, Payload: encodeReEncMsg(0, protocol.LayerWork{}, 1, nil)},
		{Type: msgCancel, Round: 1 << 8},
		{Type: msgShareReq, Payload: encodeShareReqMsg(0, 0)},
		{Type: msgConfig, Payload: []byte("not a member config")},
	} {
		if err := rogue.Send(host.Addr(), msg); err != nil {
			t.Fatal(err)
		}
	}

	cluster, err := NewCluster(d, Options{
		Attach: MemAttach(net),
		Remote: map[MemberID]string{{GID: 2, Pos: 1}: host.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	runRound(t, d, c, cluster)

	// The host's inbox is FIFO, so by now it has seen every rogue frame.
	// Only the malformed config earns a reply, and it is a refusal.
	select {
	case msg := <-rogue.Inbox():
		if code, _, err := decodeConfigAck(msg.Payload); msg.Type != msgConfigAck || err != nil || code != ackBadConfig {
			t.Fatalf("rogue got %q %x, want a bad-config refusal", msg.Type, msg.Payload)
		}
	default:
		t.Fatal("malformed config was not refused explicitly")
	}
	select {
	case msg := <-rogue.Inbox():
		t.Fatalf("unconfigured host answered dropped traffic with %q", msg.Type)
	default:
	}
}

// TestConfiguredHostIgnoresStrangersConfig: once a member holds a
// config, only its coordinator may replace it. A well-formed config from
// any other address is dropped unanswered, and the member keeps mixing
// under the wiring its coordinator gave it.
func TestConfiguredHostIgnoresStrangersConfig(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	net := transport.NewMemNetwork(nil, 256)
	host, rogue := hostOnMemnet(t, net)

	cluster, err := NewCluster(d, Options{
		Attach: MemAttach(net),
		Remote: map[MemberID]string{{GID: 2, Pos: 1}: host.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	hijack, _ := memberConfigVectors(t)
	hijack.ConfigHash = nil
	hijack.Coordinator = rogue.Addr()
	if err := rogue.Send(host.Addr(), &transport.Message{Type: msgConfig, Payload: hijack.Marshal()}); err != nil {
		t.Fatal(err)
	}
	runRound(t, d, c, cluster)
	select {
	case msg := <-rogue.Inbox():
		t.Fatalf("configured host answered a stranger's config with %q %x", msg.Type, msg.Payload)
	default:
	}
}
