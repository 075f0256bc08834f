package distributed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"atom/internal/protocol"
	"atom/internal/store"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// TestMemberCrashRestartRejoins is the durable-state fault injection:
// one member is hosted remotely over real TCP loopback with a state-dir
// store (the `atomd -member -state-dir` shape), its endpoint is torn
// down mid-round with no shutdown protocol — the moral equivalent of
// SIGKILL — and a "new process" reopens the state dir, rebinds the same
// address and resumes the persisted identity. No grace is configured
// anywhere: the host's persistence hook makes its acks durable, and that
// alone buys it the time to come back. The round must complete with
// exact plaintext parity, and the cluster's churn counters must show the
// loss resolved as a rejoin: zero re-plans, zero buddy recoveries, zero
// escrow shares solicited.
func TestMemberCrashRestartRejoins(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	hash := []byte("restart-test-group-config-hash")

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	node, err := transport.ListenTCP("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	addr := node.Addr()
	hostCtx, hostCancel := context.WithCancel(context.Background())
	defer hostCancel()
	hostDone := make(chan error, 1)
	go func() {
		hostDone <- HostMember(hostCtx, node, HostOptions{ConfigHash: hash, OnConfig: st.PutMember})
	}()

	victim := MemberID{GID: 0, Pos: 1}
	cluster, err := NewCluster(d, Options{
		Attach:          TCPAttach("127.0.0.1"),
		Remote:          map[MemberID]string{victim: addr},
		Heartbeat:       50 * time.Millisecond,
		LivenessTimeout: 500 * time.Millisecond,
		ConfigHash:      hash,
		Log:             t.Logf,
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

	// Closers created by the restart goroutine, released at test end.
	closers := make(chan func(), 2)
	t.Cleanup(func() {
		for {
			select {
			case f := <-closers:
				f()
			default:
				return
			}
		}
	})

	var killOnce sync.Once
	restartErr := make(chan error, 1)
	hooks := &protocol.RoundHooks{IterationDone: func(it protocol.IterationStats) {
		killOnce.Do(func() {
			t.Logf("hard-killing g%d/m%d at %s after iteration %d", victim.GID, victim.Pos, addr, it.Layer)
			hostCancel()
			node.Close()
			go func() {
				<-hostDone
				// The "new process": reopen the state dir (journal
				// replay) and resume at the same address.
				if cerr := st.Close(); cerr != nil {
					restartErr <- cerr
					return
				}
				st2, oerr := store.Open(dir)
				if oerr != nil {
					restartErr <- oerr
					return
				}
				closers <- func() { st2.Close() }
				resumed := st2.State().Member
				if len(resumed) == 0 {
					restartErr <- errors.New("state dir holds no member config to resume")
					return
				}
				var node2 *transport.TCPNode
				var lerr error
				for i := 0; i < 100; i++ {
					if node2, lerr = transport.ListenTCP(addr, 4096); lerr == nil {
						break
					}
					time.Sleep(50 * time.Millisecond)
				}
				if lerr != nil {
					restartErr <- fmt.Errorf("rebinding %s: %w", addr, lerr)
					return
				}
				closers <- func() { node2.Close() }
				go func() {
					_ = HostMember(context.Background(), node2, HostOptions{
						ConfigHash: hash,
						OnConfig:   st2.PutMember,
						Resume:     resumed,
					})
				}()
				restartErr <- nil
			}()
		})
	}}

	res, err := cluster.Run(context.Background(), rs, hooks)
	if err != nil {
		select {
		case rerr := <-restartErr:
			if rerr != nil {
				t.Fatalf("member restart failed: %v (round error: %v)", rerr, err)
			}
		default:
		}
		t.Fatalf("round did not survive the crash-restart: %v", err)
	}
	if !reflect.DeepEqual(res.Messages, want) {
		t.Fatalf("crash-restart round recovered %q, want %q", res.Messages, want)
	}

	// The loss must have resolved as a rejoin — any re-plan or buddy
	// recovery means the persisted state was not actually reused.
	stats := cluster.Stats()
	if stats.Rejoins < 1 {
		t.Fatalf("no rejoin recorded (stats %+v)", stats)
	}
	if stats.Replans != 0 || stats.Recoveries != 0 || stats.SharesSolicited != 0 {
		t.Fatalf("crash-restart leaked into the churn path (stats %+v)", stats)
	}
}

// TestMemberCrashWithoutStateIsLost is the negative half of the pair:
// the same kill against a host with no persistence hook. Its acks are
// not durable, so the coordinator must not wait out the restart grace
// for state that does not exist — the member is declared lost within
// the liveness timeout (testConfig has no spares, so the round fails
// typed).
func TestMemberCrashWithoutStateIsLost(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)

	node, err := transport.ListenTCP("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	hostCtx, hostCancel := context.WithCancel(context.Background())
	defer hostCancel()
	go func() { _ = HostMember(hostCtx, node, HostOptions{}) }()

	victim := MemberID{GID: 0, Pos: 1}
	opts := Options{
		Attach:          TCPAttach("127.0.0.1"),
		Remote:          map[MemberID]string{victim: node.Addr()},
		Heartbeat:       50 * time.Millisecond,
		LivenessTimeout: 500 * time.Millisecond,
		Log:             t.Logf,
	}
	cluster, err := NewCluster(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs, 6)
	var killOnce sync.Once
	var killedAt time.Time
	hooks := &protocol.RoundHooks{IterationDone: func(protocol.IterationStats) {
		killOnce.Do(func() {
			killedAt = time.Now()
			hostCancel()
			node.Close()
		})
	}}
	_, err = cluster.Run(context.Background(), rs, hooks)
	if !errors.Is(err, taxonomy.ErrMemberLost) {
		t.Fatalf("got %v, want ErrMemberLost", err)
	}
	// Detection plus the failed re-plan; nowhere near the 30 s a durable
	// member would have been granted.
	if waited := time.Since(killedAt); waited > 10*opts.LivenessTimeout {
		t.Fatalf("non-durable member declared lost only after %v (liveness timeout %v)", waited, opts.LivenessTimeout)
	}
	if stats := cluster.Stats(); stats.Rejoins != 0 {
		t.Fatalf("a member without state rejoined (stats %+v)", stats)
	}
}

// TestConfigHashMismatchRefusesProvisioning: a member host started from
// one group-config file must refuse a coordinator provisioned from
// another, and the cluster must surface the refusal as the terminal
// typed mismatch — not as churn.
func TestConfigHashMismatchRefusesProvisioning(t *testing.T) {
	d, _ := newDeployment(t, protocol.VariantNIZK, 1)

	node, err := transport.ListenTCP("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = HostMember(ctx, node, HostOptions{ConfigHash: []byte("operator-config-A")})
	}()

	_, err = NewCluster(d, Options{
		Attach:     TCPAttach("127.0.0.1"),
		Remote:     map[MemberID]string{{GID: 0, Pos: 1}: node.Addr()},
		ConfigHash: []byte("operator-config-B"),
	})
	if err == nil {
		t.Fatal("provisioning succeeded across mismatched group configs")
	}
	if !errors.Is(err, taxonomy.ErrConfigMismatch) {
		t.Fatalf("mismatch refusal produced %v, want taxonomy.ErrConfigMismatch", err)
	}
}

// nextVersionMember listens on addr (":0" for an ephemeral port) as a
// member host built from the next wire protocol version: it reads each
// dialer's hello and refuses it, as that build's transport would.
func nextVersionMember(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := transport.ReadHello(c); err == nil {
				_, _ = c.Write(taxonomy.AppendError(nil, fmt.Errorf("%w: peer speaks wire protocol version %d, this build speaks %d",
					taxonomy.ErrProtocolVersion, transport.Version, transport.Version+1)))
			}
			c.Close()
		}
	}()
	return ln.Addr().String()
}

// checkSkew asserts err is the typed version skew, with no attribution.
func checkSkew(t *testing.T, what string, err error) {
	t.Helper()
	var blame *taxonomy.Blame
	var loss *taxonomy.Loss
	if !errors.Is(err, taxonomy.ErrProtocolVersion) || errors.As(err, &blame) || errors.As(err, &loss) {
		t.Fatalf("%s: %v, want ErrProtocolVersion with no Blame and no Loss", what, err)
	}
}

// TestMemberProtocolSkew: over real TCP, a member host of another wire
// protocol version fails the coordinator's join at once with the typed
// skew — not after the join timeout, and not as a lost member — and a
// member that comes back on another version fails the round the same
// way, with no re-plan and no buddy recovery.
func TestMemberProtocolSkew(t *testing.T) {
	d, c := newDeployment(t, protocol.VariantNIZK, 1)
	start := time.Now()
	_, err := NewCluster(d, Options{
		Attach: TCPAttach("127.0.0.1"),
		Remote: map[MemberID]string{{GID: 0, Pos: 1}: nextVersionMember(t, "127.0.0.1:0")},
	})
	checkSkew(t, "joining a next-version member", err)
	if took := time.Since(start); took > joinTimeout/2 {
		t.Fatalf("the skew surfaced only after %v", took)
	}

	// The entry member of group 0 is hosted remotely, then replaced by a
	// next-version build at the same address. Heartbeats are off, so
	// nothing but the round's own traffic can notice.
	node, err := transport.ListenTCP("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	addr := node.Addr()
	hostCtx, hostCancel := context.WithCancel(context.Background())
	defer hostCancel()
	go func() { _ = HostMember(hostCtx, node, HostOptions{}) }()
	cluster, err := NewCluster(d, Options{
		Attach:    TCPAttach("127.0.0.1"),
		Remote:    map[MemberID]string{{GID: 0, Pos: 0}: addr},
		Heartbeat: -1,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	hostCancel()
	node.Close()
	nextVersionMember(t, addr)
	time.Sleep(50 * time.Millisecond) // let the peers' cached links to the old host see its FIN

	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, d, c, rs, 6)
	_, err = cluster.Run(context.Background(), rs, nil)
	checkSkew(t, "a round through a next-version member", err)
	if stats := cluster.Stats(); stats.Replans != 0 || stats.Recoveries != 0 {
		t.Fatalf("a version skew was handled as churn: %+v", stats)
	}
}
