package distributed

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"atom/internal/protocol"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// churnConfig is a many-trust deployment with churn headroom: groups of
// 3 with h=2, so each group's chain uses threshold 2 members and keeps
// one spare, and every group escrows its shares with one buddy group.
func churnConfig(workers int) protocol.Config {
	return protocol.Config{
		NumServers:  16,
		NumGroups:   3,
		GroupSize:   3,
		HonestMin:   2,
		BuddyCount:  1,
		MessageSize: 24,
		Variant:     protocol.VariantNIZK,
		Iterations:  3,
		Mix:         protocol.MixConfig{Workers: workers},
		Seed:        []byte("churn-test"),
	}
}

// churnOptions tunes the cluster for CI-speed failure detection.
func churnOptions(t *testing.T, attach AttachFunc) Options {
	return Options{
		Attach:          attach,
		Workers:         2,
		Heartbeat:       100 * time.Millisecond,
		LivenessTimeout: time.Second,
		Log:             t.Logf,
	}
}

// TestTCPChurnDegradedThenRecovery is the end-to-end churn story over
// real TCP loopback sockets, with an in-process deployment mirroring
// every stage for plaintext-set parity:
//
//  1. a chain member is killed mid-round (after the first iteration
//     completes): within the h−1 budget the coordinator re-plans the
//     chain over the survivors — activating the group's spare — and the
//     SAME round completes with the full plaintext set, stats recording
//     the reduced membership;
//  2. a second member of the same group is killed: the next round fails
//     typed — errors.Is ErrMemberLost AND ErrRecoveryNeeded, with the
//     lost member attributed via *taxonomy.Loss;
//  3. RecoverGroup reconstructs the lost shares from wire-solicited
//     buddy-group escrow pieces, installs the replacements through the
//     join path, and a clean round delivers the full set again.
func TestTCPChurnDegradedThenRecovery(t *testing.T) {
	cfg := churnConfig(2)
	d, err := protocol.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := d.Config()
	c, err := protocol.NewClient(&vcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process mirror: same config and seed, same failure
	// schedule, driven through the original FailServer/RecoverGroup
	// path — the distributed engine must recover exactly the plaintext
	// sets this path does.
	mirror, err := protocol.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := protocol.NewClient(&vcfg)
	if err != nil {
		t.Fatal(err)
	}

	cluster, err := NewCluster(d, churnOptions(t, TCPAttach("127.0.0.1")))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// --- Stage 1: one member killed mid-round (≤ h−1) -----------------
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	victim := MemberID{GID: 1, Pos: 1} // in group 1's initial chain (positions 0,1)
	var kill sync.Once
	killed := false
	hooks := &protocol.RoundHooks{IterationDone: func(protocol.IterationStats) {
		kill.Do(func() { killed = cluster.KillMember(victim) })
	}}
	res, err := cluster.Run(context.Background(), rs, hooks)
	if err != nil {
		t.Fatalf("degraded round failed: %v", err)
	}
	if !killed {
		t.Fatal("victim was not hosted locally — KillMember found no actor")
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("degraded round recovered %q, want %q", res.Messages, want)
	}
	// The completed attempt must record the reduced membership: group 1
	// now runs on 2 of 3 members.
	degraded := false
	for _, tr := range res.Traces {
		if tr.GID == 1 && tr.Members == 2 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("no trace records group 1's reduced membership: %+v", res.Traces)
	}
	if n := res.Iterations[len(res.Iterations)-1].Members; n != 8 {
		t.Fatalf("final iteration reports %d live members, want 8 (one lost of 9)", n)
	}

	// In-process parity for the degraded configuration.
	if err := mirror.FailGroupMember(1, 1); err != nil {
		t.Fatal(err)
	}
	mrs, err := mirror.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, mirror, mc, mrs, 6)
	mres, err := mirror.RunRoundCtx(context.Background(), mrs, nil)
	if err != nil {
		t.Fatalf("in-process degraded round failed: %v", err)
	}
	if !reflect.DeepEqual(res.Messages, mres.Messages) {
		t.Fatalf("degraded plaintext sets diverge: distributed %q, in-process %q", res.Messages, mres.Messages)
	}

	// --- Stage 2: a second loss in group 1 (> h−1) --------------------
	if !cluster.KillMember(MemberID{GID: 1, Pos: 0}) {
		t.Fatal("second victim not hosted locally")
	}
	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs2, 6)
	_, err = cluster.Run(context.Background(), rs2, nil)
	if err == nil {
		t.Fatal("round with an under-threshold group succeeded")
	}
	if !errors.Is(err, taxonomy.ErrMemberLost) {
		t.Fatalf("got %v, want ErrMemberLost", err)
	}
	if !errors.Is(err, taxonomy.ErrRecoveryNeeded) {
		t.Fatalf("got %v, want ErrRecoveryNeeded too (budget exhausted)", err)
	}
	var loss *taxonomy.Loss
	if !errors.As(err, &loss) || loss.GID != 1 {
		t.Fatalf("loss not attributed to group 1: %v", err)
	}
	if need, _ := d.GroupNeedsRecovery(1); !need {
		t.Fatal("deployment does not report group 1 as needing recovery")
	}

	// The mirror agrees this configuration cannot mix.
	if err := mirror.FailGroupMember(1, 0); err != nil {
		t.Fatal(err)
	}
	mrs2, err := mirror.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, mirror, mc, mrs2, 6)
	if _, err := mirror.RunRoundCtx(context.Background(), mrs2, nil); !errors.Is(err, taxonomy.ErrRecoveryNeeded) {
		t.Fatalf("in-process mirror: got %v, want ErrRecoveryNeeded", err)
	}

	// --- Stage 3: buddy-group recovery over the wire ------------------
	if err := cluster.RecoverGroup(context.Background(), 1, []int{100, 101}); err != nil {
		t.Fatalf("wire recovery failed: %v", err)
	}
	if need, _ := d.GroupNeedsRecovery(1); need {
		t.Fatal("group 1 still needs recovery after RecoverGroup")
	}
	rs3, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want3 := submitAll(t, d, c, rs3, 6)
	res3, err := cluster.Run(context.Background(), rs3, nil)
	if err != nil {
		t.Fatalf("post-recovery round failed: %v", err)
	}
	if !reflect.DeepEqual(res3.Messages, want3) {
		t.Fatalf("post-recovery round recovered %q, want %q", res3.Messages, want3)
	}

	// In-process parity for the recovered configuration.
	if err := mirror.RecoverGroup(1, []int{100, 101}); err != nil {
		t.Fatal(err)
	}
	mrs3, err := mirror.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, mirror, mc, mrs3, 6)
	mres3, err := mirror.RunRoundCtx(context.Background(), mrs3, nil)
	if err != nil {
		t.Fatalf("in-process post-recovery round failed: %v", err)
	}
	if !reflect.DeepEqual(res3.Messages, mres3.Messages) {
		t.Fatalf("post-recovery plaintext sets diverge: distributed %q, in-process %q", res3.Messages, mres3.Messages)
	}
}

// TestMemnetChurnBetweenRounds: a member that dies BETWEEN rounds (no
// chain traffic touches it until the next injection) is still detected
// by the liveness tracker at the next round's first check, re-planned
// away, and the round completes.
func TestMemnetChurnBetweenRounds(t *testing.T) {
	cfg := churnConfig(1)
	d, err := protocol.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := d.Config()
	c, err := protocol.NewClient(&vcfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(d, churnOptions(t, MemAttach(transport.NewMemNetwork(wanDelay(), 256))))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// A healthy round first, so connections and chains are warm.
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want := submitAll(t, d, c, rs, 6)
	if res, err := cluster.Run(context.Background(), rs, nil); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("healthy round recovered %q, want %q", res.Messages, want)
	}

	// Kill a non-entry chain member of group 0 while idle.
	if !cluster.KillMember(MemberID{GID: 0, Pos: 1}) {
		t.Fatal("victim not hosted locally")
	}
	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	want2 := submitAll(t, d, c, rs2, 6)
	res2, err := cluster.Run(context.Background(), rs2, nil)
	if err != nil {
		t.Fatalf("round after idle churn failed: %v", err)
	}
	if !reflect.DeepEqual(res2.Messages, want2) {
		t.Fatalf("round after idle churn recovered %q, want %q", res2.Messages, want2)
	}
	if n, _ := d.GroupLiveMembers(0); n != 2 {
		t.Fatalf("group 0 reports %d live members, want 2", n)
	}
}

// TestRemoteMemberLoss: a remotely hosted member (the atomd -member
// path) whose process dies mid-round surfaces as ErrMemberLost — and
// with no spares (threshold = k) and no buddies, the error also says
// recovery is needed.
func TestRemoteMemberLoss(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	net := transport.NewMemNetwork(nil, 256)

	remoteEP, err := net.Attach("remote/host")
	if err != nil {
		t.Fatal(err)
	}
	hostCtx, hostCancel := context.WithCancel(context.Background())
	defer hostCancel()
	hostDone := make(chan error, 1)
	go func() { hostDone <- HostMember(hostCtx, remoteEP, HostOptions{}) }()

	opts := churnOptions(t, MemAttach(net))
	opts.Remote = map[MemberID]string{{GID: 2, Pos: 1}: remoteEP.Addr()}
	cluster, err := NewCluster(d, opts)
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
		t.Fatalf("remote round recovered %q, want %q", res.Messages, want)
	}

	// Crash the remote host: its endpoint closes, heartbeats stop.
	hostCancel()
	<-hostDone
	_ = remoteEP.Close()

	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs2, 6)
	_, err = cluster.Run(context.Background(), rs2, nil)
	if !errors.Is(err, taxonomy.ErrMemberLost) {
		t.Fatalf("got %v, want ErrMemberLost", err)
	}
	var loss *taxonomy.Loss
	if !errors.As(err, &loss) || loss.GID != 2 {
		t.Fatalf("loss not attributed to group 2: %v", err)
	}
}

// TestTimeoutErrorCarriesProgress: a round timeout names every member's
// last-known position instead of failing anonymously.
func TestTimeoutErrorCarriesProgress(t *testing.T) {
	e := &TimeoutError{
		Round: 7,
		After: 3 * time.Second,
		Progress: []MemberProgress{
			{ID: MemberID{GID: 0, Pos: 1}, Round: 7, Layer: 2, Phase: "reenc", Age: 1200 * time.Millisecond},
		},
	}
	msg := e.Error()
	for _, wantSub := range []string{"round 7 timed out", "g0/m1", "reenc", "L2"} {
		if !strings.Contains(msg, wantSub) {
			t.Fatalf("timeout error %q missing %q", msg, wantSub)
		}
	}
}
