package daemon

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"atom"
	"atom/internal/distributed"
	"atom/internal/dkg"
	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// publicSentinels names every value a caller classifies an error by:
// the atom.Err* taxonomy and the two context errors it carries.
var publicSentinels = []struct {
	name string
	err  error
}{
	{"RoundAborted", atom.ErrRoundAborted},
	{"TrapTripped", atom.ErrTrapTripped},
	{"ProofRejected", atom.ErrProofRejected},
	{"MemberLost", atom.ErrMemberLost},
	{"RecoveryNeeded", atom.ErrRecoveryNeeded},
	{"BadSubmission", atom.ErrBadSubmission},
	{"DuplicateSubmission", atom.ErrDuplicateSubmission},
	{"RoundClosed", atom.ErrRoundClosed},
	{"VariantMismatch", atom.ErrVariantMismatch},
	{"NoSuchGroup", atom.ErrNoSuchGroup},
	{"StateCorrupt", atom.ErrStateCorrupt},
	{"ConfigMismatch", atom.ErrConfigMismatch},
	{"SetupFailed", atom.ErrSetupFailed},
	{"DKGInsufficient", atom.ErrDKGInsufficient},
	{"ServiceClosed", atom.ErrServiceClosed},
	{"ResultExpired", atom.ErrResultExpired},
	{"Canceled", context.Canceled},
	{"DeadlineExceeded", context.DeadlineExceeded},
}

// answer is everything a caller can learn from an error without
// parsing its text: the sentinels it matches and its attribution.
type answer struct {
	Matches []string
	// Blamed and Lost are "gid/member", empty without an attribution.
	Blamed, Lost string
}

func answerOf(err error) answer {
	var a answer
	for _, s := range publicSentinels {
		if errors.Is(err, s.err) {
			a.Matches = append(a.Matches, s.name)
		}
	}
	if gid, m, ok := atom.BlamedMember(err); ok {
		a.Blamed = fmt.Sprintf("%d/%d", gid, m)
	}
	if gid, m, ok := atom.LostMember(err); ok {
		a.Lost = fmt.Sprintf("%d/%d", gid, m)
	}
	return a
}

// errOf drops a call's value, keeping its error.
func errOf[T any](_ T, err error) error { return err }

// overGob ships err as a failed request's gob reply and returns the
// error the client decodes from it.
func overGob(t *testing.T, err error) error {
	t.Helper()
	r, got := decodeReply(fail(msgAwaitReply, err).Payload)
	if r != nil || got == nil {
		t.Fatalf("gob reply for %v decoded as success", err)
	}
	return got
}

// overAck ships err as a rejection in a fast-path ack frame and returns
// the error FastClient hands the submission's callback.
func overAck(t *testing.T, err error) error {
	t.Helper()
	var got error
	settled := false
	fc := &FastClient{pending: map[uint64]func(uint64, error){
		7: func(_ uint64, err error) { got, settled = err, true },
	}}
	if !fc.handleAcks(appendAcks(nil, []fpAck{{seq: 7, err: err}})) || !settled {
		t.Fatalf("ack for %v did not settle its submission", err)
	}
	return got
}

// TestErrorKindRoundTrip drives every public sentinel through both
// daemon wire forms and back: the client-side rebuild must satisfy
// errors.Is for the same sentinel (and its taxonomy parents), so a
// daemon hop never downgrades a typed error to a bare string.
func TestErrorKindRoundTrip(t *testing.T) {
	sentinels := []error{
		atom.ErrBadSubmission,
		atom.ErrDuplicateSubmission,
		atom.ErrRoundClosed,
		atom.ErrRoundAborted,
		atom.ErrTrapTripped,
		atom.ErrProofRejected,
		atom.ErrRecoveryNeeded,
		atom.ErrVariantMismatch,
		atom.ErrNoSuchGroup,
		atom.ErrStateCorrupt,
		atom.ErrConfigMismatch,
		atom.ErrSetupFailed,
		atom.ErrDKGInsufficient,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("%w: some detail", sentinel)
		for path, rebuilt := range map[string]error{"gob": overGob(t, wrapped), "ack": overAck(t, wrapped)} {
			if !errors.Is(rebuilt, sentinel) {
				t.Errorf("%s hop of %v = %v, loses the sentinel", path, sentinel, rebuilt)
			}
			if rebuilt.Error() != wrapped.Error() {
				t.Errorf("%s hop rewrote the text %q to %q", path, wrapped, rebuilt)
			}
		}
	}
	// ErrMemberLost crosses the wire as itself and as its
	// ErrRoundAborted parent, never as a generic error.
	lost := fmt.Errorf("%w: server 7", atom.ErrMemberLost)
	rebuilt := overGob(t, lost)
	if !errors.Is(rebuilt, atom.ErrMemberLost) || !errors.Is(rebuilt, atom.ErrRoundAborted) {
		t.Errorf("member-lost error crossed the wire as %v, want ErrMemberLost and ErrRoundAborted", rebuilt)
	}
}

// TestSetupErrorKindsSpecific pins the setup sentinels: the
// insufficient-participants case must keep its specific identity across
// the wire, not collapse into the generic setup failure.
func TestSetupErrorKindsSpecific(t *testing.T) {
	insufficient := fmt.Errorf("%w: 2 of 5 qualified", atom.ErrDKGInsufficient)
	rebuilt := overGob(t, insufficient)
	if !errors.Is(rebuilt, atom.ErrDKGInsufficient) || !errors.Is(rebuilt, atom.ErrSetupFailed) {
		t.Fatalf("rebuilt insufficient error %v loses its taxonomy branch", rebuilt)
	}

	setup := fmt.Errorf("%w: group 3 ceremony aborted", atom.ErrSetupFailed)
	rebuilt = overGob(t, setup)
	if !errors.Is(rebuilt, atom.ErrSetupFailed) || errors.Is(rebuilt, atom.ErrDKGInsufficient) {
		t.Fatalf("rebuilt setup error %v has the wrong specificity", rebuilt)
	}
}

// TestPersistenceErrorKindsRoundTrip pins the durable-state sentinels
// to the gob error envelope: what the server fails with, the client
// rebuilds as an errors.Is match.
func TestPersistenceErrorKindsRoundTrip(t *testing.T) {
	for _, sentinel := range []error{atom.ErrStateCorrupt, atom.ErrConfigMismatch} {
		wire := fmt.Errorf("daemon: refusing join: %w", sentinel)
		if back := overGob(t, wire); !errors.Is(back, sentinel) {
			t.Fatalf("wire roundtrip of %v rebuilt %v, losing the sentinel", sentinel, back)
		}
	}
}

// taxonomyConfig is the small network the table's in-process failures
// come from: groups of 3 with h=1, so one failure spends the budget.
func taxonomyConfig(variant atom.Variant) atom.Config {
	return atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3, MessageSize: 32,
		Variant: variant, Iterations: 2, MixWorkers: 1, Buddies: 1,
		Seed: []byte("taxonomy-table"),
	}
}

// tamperedRound mixes a round of 8 whose group-0 first member tampers
// with its layer-0 output, returning the abort.
func tamperedRound(t *testing.T, variant atom.Variant, tamper func([]elgamal.Vector) []elgamal.Vector) error {
	t.Helper()
	n, err := atom.NewNetwork(taxonomyConfig(variant))
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.OpenRound(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("tamper %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	n.Deployment().SetAdversary(&protocol.Adversary{Layer: 0, GID: 0, Member: 0, Tamper: tamper})
	_, err = r.Mix(t.Context())
	return err
}

// TestTaxonomySameAnswerEveryPath: every failure of the taxonomy gives
// the same answer — the public sentinels it matches and its
// BlamedMember/LostMember attribution — in process, after a gob reply
// and after a fast-path ack; the memnet Cluster round lost past budget
// also after daemon.Client.Await end to end. The distributed engine's
// abort report is held to the same round aborts in distributed's
// TestAbortReportSameAnswer.
func TestTaxonomySameAnswerEveryPath(t *testing.T) {
	nizk, err := atom.NewNetwork(taxonomyConfig(atom.NIZK))
	if err != nil {
		t.Fatal(err)
	}
	open := func() *atom.Round {
		r, err := nizk.OpenRound(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	client, err := atom.NewClient(taxonomyConfig(atom.NIZK))
	if err != nil {
		t.Fatal(err)
	}
	key, err := nizk.EntryKey(0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := client.EncryptSubmission([]byte("twice"), key, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dup := open()
	if err := dup.SubmitEncoded(1, wire); err != nil {
		t.Fatal(err)
	}
	closed := open()
	if _, err := closed.Mix(t.Context()); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(t.Context())
	cancel()
	expired, cancel2 := context.WithDeadline(t.Context(), time.Now().Add(-time.Second))
	defer cancel2()
	svc, err := nizk.Serve(t.Context(), atom.ServeOptions{RoundInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	_ = svc.Close()

	// A network with a group past its budget refuses to mix.
	dead, err := atom.NewNetwork(taxonomyConfig(atom.NIZK))
	if err != nil {
		t.Fatal(err)
	}
	deadRound, err := dead.OpenRound(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := deadRound.Submit(0, []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	if err := dead.FailGroupMember(1, 0); err != nil {
		t.Fatal(err)
	}

	clusterLoss, awaited := clusterLossPastBudget(t)

	rows := []struct {
		name         string
		err          error
		want         []error
		blamed, lost string
		// hops holds the failure as further paths delivered it.
		hops map[string]error
	}{
		{name: "bad submission", err: open().SubmitEncoded(0, []byte("garbage")),
			want: []error{atom.ErrBadSubmission}},
		{name: "duplicate", err: dup.SubmitEncoded(2, wire),
			want: []error{atom.ErrBadSubmission, atom.ErrDuplicateSubmission}},
		{name: "round closed", err: closed.Submit(0, []byte("late")),
			want: []error{atom.ErrRoundClosed}},
		{name: "trap tripped", err: tamperedRound(t, atom.Trap, func(b []elgamal.Vector) []elgamal.Vector { return b[:len(b)-1] }),
			want: []error{atom.ErrRoundAborted, atom.ErrTrapTripped}},
		{name: "proof rejected", err: tamperedRound(t, atom.NIZK, func(b []elgamal.Vector) []elgamal.Vector {
			out := append([]elgamal.Vector(nil), b...)
			out[0] = b[1]
			return out
		}), want: []error{atom.ErrRoundAborted, atom.ErrProofRejected}, blamed: "0/1"},
		{name: "member lost", err: &taxonomy.Loss{GID: 2, Member: 3, Err: fmt.Errorf(
			"%w: round 9 exceeded 8 churn restarts", taxonomy.ErrMemberLost)},
			want: []error{atom.ErrRoundAborted, atom.ErrMemberLost}, lost: "2/3"},
		{name: "member lost past budget", err: &taxonomy.Loss{GID: 1, Member: 2, Err: fmt.Errorf(
			"%w: round 9: group 1 lost member 2: %w", taxonomy.ErrMemberLost, taxonomy.ErrRecoveryNeeded)},
			want: []error{atom.ErrRoundAborted, atom.ErrMemberLost, atom.ErrRecoveryNeeded}, lost: "1/2"},
		{name: "member lost past budget: memnet Cluster", err: clusterLoss,
			want: []error{atom.ErrRoundAborted, atom.ErrMemberLost, atom.ErrRecoveryNeeded}, lost: "1/2",
			hops: map[string]error{"daemon.Client.Await": awaited}},
		{name: "recovery needed", err: errOf(deadRound.Mix(t.Context())),
			want: []error{atom.ErrRecoveryNeeded}},
		{name: "no such group: FailGroupMember", err: nizk.FailGroupMember(99, 0),
			want: []error{atom.ErrNoSuchGroup}},
		{name: "no such group: NeedsRecovery", err: errOf(nizk.NeedsRecovery(99)),
			want: []error{atom.ErrNoSuchGroup}},
		{name: "no such group: Recover", err: nizk.Recover(99, []int{100}),
			want: []error{atom.ErrNoSuchGroup}},
		{name: "variant mismatch", err: errOf(open().TrusteeKey()),
			want: []error{atom.ErrVariantMismatch}},
		{name: "cancel", err: errOf(open().Mix(canceled)),
			want: []error{atom.ErrRoundAborted, context.Canceled}},
		{name: "deadline", err: errOf(open().Mix(expired)),
			want: []error{atom.ErrRoundAborted, context.DeadlineExceeded}},
		{name: "service closed", err: func() error { _, _, err := svc.Current(); return err }(),
			want: []error{atom.ErrServiceClosed}},
		{name: "result expired", err: fmt.Errorf("%w: round 7", atom.ErrResultExpired),
			want: []error{atom.ErrResultExpired}},
		{name: "state corrupt", err: errOf(atom.RestoreNetwork(taxonomyConfig(atom.NIZK), []byte{0xff, 1, 2}, 0)), want: []error{atom.ErrStateCorrupt}},
		{name: "config mismatch", err: fmt.Errorf("daemon: refusing join: %w", taxonomy.ErrConfigMismatch),
			want: []error{atom.ErrConfigMismatch}},
		{name: "setup failed", err: fmt.Errorf("atom: group 3 ceremony: %w", dkg.ErrWithheld),
			want: []error{atom.ErrSetupFailed}},
		{name: "DKG insufficient", err: fmt.Errorf("atom: group 2 ceremony: %w", taxonomy.ErrDKGInsufficient),
			want: []error{atom.ErrSetupFailed, atom.ErrDKGInsufficient}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.err == nil {
				t.Fatal("the failure did not happen")
			}
			want := answerOf(errors.Join(row.want...))
			want.Blamed, want.Lost = row.blamed, row.lost
			if got := answerOf(row.err); !reflect.DeepEqual(got, want) {
				t.Fatalf("in process: %v answers %+v, want %+v", row.err, got, want)
			}
			hops := map[string]error{"gob reply": overGob(t, row.err), "fast-path ack": overAck(t, row.err)}
			for path, hopped := range row.hops {
				hops[path] = hopped
			}
			for path, hopped := range hops {
				if got := answerOf(hopped); !reflect.DeepEqual(got, want) {
					t.Errorf("after a %s: %v answers %+v, want %+v", path, hopped, got, want)
				}
			}
		})
	}
}

// clusterLossPastBudget runs a daemon whose service mixes on a memnet
// Cluster, kills a member of a group with no spare and submits a round:
// it returns the round's failure as the service holds it in process and
// as daemon.Client.Await returns it.
func clusterLossPastBudget(t *testing.T) (local, remote error) {
	t.Helper()
	cfg := taxonomyConfig(atom.NIZK)
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := distributed.NewCluster(srv.Network().Deployment(), distributed.Options{
		Attach:  distributed.MemAttach(transport.NewMemNetwork(nil, 256)),
		Workers: 1, Heartbeat: 100 * time.Millisecond, LivenessTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := srv.EnableService(context.Background(), atom.ServeOptions{
		RoundInterval: time.Hour, MaxBatch: 4, Mixer: cluster,
	}); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ri, err := cli.ServeInfo(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !cluster.KillMember(distributed.MemberID{GID: 1, Pos: 1}) {
		t.Fatal("victim not hosted locally")
	}
	enc, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	if _, err := SubmitBatch(t.Context(), cli, enc, info, ri, 0, msgs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	_, remote = cli.Await(ctx, ri.ID)
	out, err := srv.Service().WaitRound(ctx, ri.ID)
	if err != nil {
		t.Fatal(err)
	}
	return out.Err, remote
}
