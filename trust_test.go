package atom

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"atom/internal/beacon"
	"atom/internal/parallel"
	"atom/internal/store"
)

// testWindow is the per-phase DKG message window tests run ceremonies
// under; honest paths early-advance, so rounds stay fast.
const testWindow = 150 * time.Millisecond

func testDKGNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetworkDKG(testNetworkConfig(NIZK, 32), testWindow)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTrustCompleteEndToEnd runs a full round on a network with no
// trusted dealer anywhere: the beacon committee and every group key
// come from joint-Feldman ceremonies, group formation samples from a
// produced (verified) beacon round, and the mix still delivers.
func TestTrustCompleteEndToEnd(t *testing.T) {
	n := testDKGNetwork(t)
	if n.BeaconChain() == nil {
		t.Fatal("DKG network has no beacon chain")
	}
	if head, _ := n.BeaconChain().Head(); head != 1 {
		t.Fatalf("beacon head = %d after setup, want 1", head)
	}
	r := openTestRound(t, n)
	want := map[string]bool{}
	for u := 0; u < 6; u++ {
		msg := fmt.Sprintf("dealerless msg %d", u)
		want[msg] = true
		if err := r.Submit(u, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 6 {
		t.Fatalf("%d messages, want 6", len(res.Messages))
	}
	for _, m := range res.Messages {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
	}
	// The beacon keeps producing publicly-verifiable rounds.
	head, err := n.BeaconTick()
	if err != nil {
		t.Fatal(err)
	}
	if head != 2 {
		t.Fatalf("BeaconTick head = %d, want 2", head)
	}
	if r := n.BeaconChain().Record(2); r == nil {
		t.Fatal("round 2 record not retained for catchup")
	}
}

// TestReshareRotatesOperator runs one resharing epoch: a member leaves,
// a fresh server takes its position with a newly dealt share, and the
// group public key is provably unchanged — a round submitted after the
// rotation still mixes under the same entry keys.
func TestReshareRotatesOperator(t *testing.T) {
	n := testDKGNetwork(t)
	pkBefore, err := n.EntryKey(0)
	if err != nil {
		t.Fatal(err)
	}
	membersBefore := append([]int(nil), n.Deployment().GroupMembers(0)...)
	outPos := 1
	newServer := 99 // not in the original roster of 12
	if err := n.ReshareGroup(0, outPos, newServer); err != nil {
		t.Fatal(err)
	}
	pkAfter, err := n.EntryKey(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkBefore, pkAfter) {
		t.Fatal("resharing changed the group public key")
	}
	membersAfter := n.Deployment().GroupMembers(0)
	if membersAfter[outPos] != newServer {
		t.Fatalf("position %d holds %d after rotation, want %d", outPos, membersAfter[outPos], newServer)
	}
	for pos, m := range membersAfter {
		if pos != outPos && m != membersBefore[pos] {
			t.Fatalf("position %d changed from %d to %d: rotation leaked", pos, membersBefore[pos], m)
		}
	}
	// The epoch is transparent to users: submissions encrypted to the
	// (unchanged) entry keys still mix with the rotated membership.
	r := openTestRound(t, n)
	for u := 0; u < 6; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("post-epoch %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 6 {
		t.Fatalf("%d messages after resharing, want 6", len(res.Messages))
	}
}

// TestEntropyInjectionDeterministic checks the package's client-side
// randomness really flows through the one injected source: two runs
// seeded identically produce byte-identical dialing identities,
// requests, and cover traffic.
func TestEntropyInjectionDeterministic(t *testing.T) {
	t.Cleanup(func() { SetEntropySource(nil) })
	bob, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	seed := []byte("entropy-injection-test")
	derive := func() (idPub, req []byte, dummies [][]byte) {
		t.Helper()
		SetEntropySource(parallel.LockedReader(beacon.StreamFrom(seed, "entropy-test")))
		id, err := NewDialIdentity()
		if err != nil {
			t.Fatal(err)
		}
		req, err = NewDialRequest(bob.Public(), id.Public())
		if err != nil {
			t.Fatal(err)
		}
		dummies, err = DialNoise{Mu: 4, Scale: 1}.SampleDummies()
		if err != nil {
			t.Fatal(err)
		}
		return id.Public(), req, dummies
	}
	pub1, req1, dum1 := derive()
	pub2, req2, dum2 := derive()
	if !bytes.Equal(pub1, pub2) {
		t.Error("dialing identity not deterministic under injected entropy")
	}
	if !bytes.Equal(req1, req2) {
		t.Error("dial request not deterministic under injected entropy")
	}
	if len(dum1) != len(dum2) {
		t.Fatalf("dummy counts differ: %d vs %d", len(dum1), len(dum2))
	}
	for i := range dum1 {
		if !bytes.Equal(dum1[i], dum2[i]) {
			t.Fatalf("dummy %d differs under injected entropy", i)
		}
	}
	// Restoring crypto/rand must break the determinism again.
	SetEntropySource(nil)
	id3, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pub1, id3.Public()) {
		t.Error("entropy source not restored to crypto/rand")
	}
}

// TestTrustPersistResume persists the trust transcript and beacon
// chain, restarts from disk, and checks the chain RESUMES — same
// outputs, same next round — rather than forking, and that the
// restored network still mixes.
func TestTrustPersistResume(t *testing.T) {
	cfg := testNetworkConfig(NIZK, 32)
	n, err := NewNetworkDKG(cfg, testWindow)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PersistTrust(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := n.BeaconTick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutDeployment(n.MarshalState()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	state := st2.State()
	if state.MaxBeaconRound() != 5 {
		t.Fatalf("persisted beacon head = %d, want 5", state.MaxBeaconRound())
	}
	n2, err := RestoreNetwork(cfg, state.Deployment, state.MaxRound())
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.RestoreTrust(st2); err != nil {
		t.Fatal(err)
	}
	head2, out2 := n2.BeaconChain().Head()
	head1, out1 := n.BeaconChain().Head()
	if head2 != head1 || !bytes.Equal(out1, out2) {
		t.Fatalf("restored chain head (%d, %x) != original (%d, %x)", head2, out2, head1, out1)
	}
	// Both incarnations produce the identical next round (deterministic
	// nonces + same chain prefix): the restart cannot fork the beacon.
	if _, err := n.BeaconTick(); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.BeaconTick(); err != nil {
		t.Fatal(err)
	}
	_, o1 := n.BeaconChain().Head()
	_, o2 := n2.BeaconChain().Head()
	if !bytes.Equal(o1, o2) {
		t.Fatal("restarted beacon forked from the original chain")
	}
	// And the tick journaled through the re-installed hook.
	resumed := st2.State()
	if resumed.MaxBeaconRound() != 6 {
		t.Fatalf("resumed journal head = %d, want 6", resumed.MaxBeaconRound())
	}
	// The restored network still mixes (keys survived the store).
	r := openTestRound(t, n2)
	for u := 0; u < 4; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("resumed %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 4 {
		t.Fatalf("%d messages after restore, want 4", len(res.Messages))
	}
}

// TestBeaconLaggardCatchup syncs a fresh chain (same ChainInfo, no
// rounds) from a producing network's records — the laggard path every
// restarted observer takes.
func TestBeaconLaggardCatchup(t *testing.T) {
	n := testDKGNetwork(t)
	for i := 0; i < 3; i++ {
		if _, err := n.BeaconTick(); err != nil {
			t.Fatal(err)
		}
	}
	src := n.BeaconChain()
	laggard, err := beacon.NewChain(src.Info())
	if err != nil {
		t.Fatal(err)
	}
	target, _ := src.Head()
	err = laggard.SyncFrom(func(after uint64) ([]*beacon.Round, error) {
		return src.Records(after), nil
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	lh, lo := laggard.Head()
	sh, so := src.Head()
	if lh != sh || !bytes.Equal(lo, so) {
		t.Fatalf("laggard head (%d, %x) != source (%d, %x)", lh, lo, sh, so)
	}
}
