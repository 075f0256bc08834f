package atom

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/taxonomy"
)

func TestRoundConcurrentSubmission(t *testing.T) {
	// Many goroutines hammer one round's Submit concurrently; with
	// sharded ingestion this must be race-clean (run under -race) and
	// lose no submissions.
	for _, v := range []Variant{NIZK, Trap} {
		n, err := NewNetwork(testNetworkConfig(v, 32))
		if err != nil {
			t.Fatal(err)
		}
		round, err := n.OpenRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		const perWorker = 3
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					user := w*perWorker + i
					msg := fmt.Sprintf("concurrent %v %d", v, user)
					if err := round.Submit(user, []byte(msg)); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := round.Pending(); got != workers*perWorker {
			t.Fatalf("variant %v: %d pending, want %d", v, got, workers*perWorker)
		}
		res, err := round.Mix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Messages) != workers*perWorker {
			t.Fatalf("variant %v: %d messages out, want %d", v, len(res.Messages), workers*perWorker)
		}
	}
}

func TestRoundPipelining(t *testing.T) {
	// The §4.7 pipelined organization end-to-end: round r+1 opens and
	// ingests submissions while round r mixes; both rounds complete
	// with the correct anonymized output.
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}

	r0, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want0 := map[string]bool{}
	for u := 0; u < 8; u++ {
		msg := fmt.Sprintf("round0 msg %d", u)
		want0[msg] = true
		if err := r0.Submit(u, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}

	// Mix round 0 in the background; meanwhile open round 1 and submit
	// into it. submitted1 closes once every round-1 submission has been
	// accepted; the test asserts that happens before round 0's Mix
	// returns has-completed semantics via the overlap counter below.
	mixStarted := make(chan struct{})
	mixDone := make(chan struct{})
	var res0 *Result
	var err0 error
	go func() {
		close(mixStarted)
		res0, err0 = r0.Mix(context.Background())
		close(mixDone)
	}()
	<-mixStarted

	r1, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID() == r0.ID() {
		t.Fatal("round ids must be unique")
	}
	want1 := map[string]bool{}
	overlapped := 0
	for u := 0; u < 8; u++ {
		msg := fmt.Sprintf("round1 msg %d", u)
		want1[msg] = true
		if err := r1.Submit(u, []byte(msg)); err != nil {
			t.Fatalf("submission into round %d while round %d mixes: %v", r1.ID(), r0.ID(), err)
		}
		select {
		case <-mixDone:
		default:
			overlapped++
		}
	}
	<-mixDone
	if err0 != nil {
		t.Fatalf("round 0: %v", err0)
	}
	t.Logf("%d/8 round-1 submissions accepted while round 0 was still mixing", overlapped)

	res1, err := r1.Mix(context.Background())
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}

	check := func(res *Result, want map[string]bool, name string) {
		t.Helper()
		if len(res.Messages) != len(want) {
			t.Fatalf("%s: %d messages, want %d", name, len(res.Messages), len(want))
		}
		for _, m := range res.Messages {
			if !want[string(m)] {
				t.Errorf("%s: unexpected message %q", name, m)
			}
		}
	}
	check(res0, want0, "round 0")
	check(res1, want1, "round 1")

	// Round stats are available after the mix.
	st, ok := r0.Stats()
	if !ok || st.Iterations != 2 || st.Messages != 8 || st.Submissions != 8 {
		t.Fatalf("round 0 stats = %+v ok=%v", st, ok)
	}
	if len(st.PerIteration) != 2 || st.PerIteration[0].Duration <= 0 {
		t.Fatalf("per-iteration stats missing: %+v", st.PerIteration)
	}
}

func TestRoundErrorsTaxonomy(t *testing.T) {
	// errors.Is classification for the public sentinels, via the public
	// API surface wherever possible.
	cfg := testNetworkConfig(Trap, 32)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-submission", func(t *testing.T) {
		r, _ := n.OpenRound(context.Background())
		err := r.SubmitEncoded(0, []byte("garbage wire bytes"))
		if !errors.Is(err, ErrBadSubmission) {
			t.Fatalf("got %v, want ErrBadSubmission", err)
		}
		if errors.Is(err, ErrRoundAborted) {
			t.Fatal("bad submission must not match ErrRoundAborted")
		}
	})

	t.Run("duplicate-submission", func(t *testing.T) {
		r, _ := n.OpenRound(context.Background())
		key, err := r.TrusteeKey()
		if err != nil {
			t.Fatal(err)
		}
		entry, err := n.EntryKey(0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := c.EncryptSubmission([]byte("dup"), entry, key, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitEncoded(0, wire); err != nil {
			t.Fatal(err)
		}
		err = r.SubmitEncoded(1, wire)
		if !errors.Is(err, ErrDuplicateSubmission) {
			t.Fatalf("got %v, want ErrDuplicateSubmission", err)
		}
		if !errors.Is(err, ErrBadSubmission) {
			t.Fatal("a duplicate must also match ErrBadSubmission")
		}
	})

	t.Run("round-closed", func(t *testing.T) {
		r, _ := n.OpenRound(context.Background())
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("closing %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Mix(context.Background()); err != nil {
			t.Fatal(err)
		}
		err := r.Submit(99, []byte("too late"))
		if !errors.Is(err, ErrRoundClosed) {
			t.Fatalf("got %v, want ErrRoundClosed", err)
		}
		if _, err := r.Mix(context.Background()); !errors.Is(err, ErrRoundClosed) {
			t.Fatalf("double Mix: got %v, want ErrRoundClosed", err)
		}
	})

	t.Run("no-such-group", func(t *testing.T) {
		r, _ := n.OpenRound(context.Background())
		if err := r.SubmitTo(0, 99, []byte("nowhere")); !errors.Is(err, ErrNoSuchGroup) {
			t.Fatalf("got %v, want ErrNoSuchGroup", err)
		}
	})

	t.Run("variant-mismatch", func(t *testing.T) {
		nizkNet, err := NewNetwork(testNetworkConfig(NIZK, 32))
		if err != nil {
			t.Fatal(err)
		}
		r, _ := nizkNet.OpenRound(context.Background())
		if _, err := r.TrusteeKey(); !errors.Is(err, ErrVariantMismatch) {
			t.Fatalf("got %v, want ErrVariantMismatch", err)
		}
	})

	t.Run("trap-tripped", func(t *testing.T) {
		r, err := n.OpenRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("tamper %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		// A malicious server drops a ciphertext mid-mix.
		n.d.SetAdversary(&protocol.Adversary{
			Layer: 0, GID: 0, Member: 0,
			Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
				if len(batch) == 0 {
					return nil
				}
				return batch[:len(batch)-1]
			},
		})
		_, err = r.Mix(context.Background())
		if !errors.Is(err, ErrTrapTripped) {
			t.Fatalf("got %v, want ErrTrapTripped", err)
		}
		if !errors.Is(err, ErrRoundAborted) {
			t.Fatal("a trap trip must also match ErrRoundAborted")
		}
		if errors.Is(err, ErrProofRejected) {
			t.Fatal("a trap trip must not match ErrProofRejected")
		}
		// The protocol layer returns the public sentinel itself.
		if !errors.Is(err, taxonomy.ErrTrapTripped) {
			t.Fatal("protocol-layer taxonomy.ErrTrapTripped lost from the chain")
		}
	})

	t.Run("proof-rejected", func(t *testing.T) {
		nizkNet, err := NewNetwork(testNetworkConfig(NIZK, 32))
		if err != nil {
			t.Fatal(err)
		}
		r, _ := nizkNet.OpenRound(context.Background())
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("nizk tamper %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		// Replace one ciphertext with a copy of another (shape-preserving
		// tamper): the member's shuffle proof then fails verification.
		nizkNet.d.SetAdversary(&protocol.Adversary{
			Layer: 0, GID: 0, Member: 0,
			Tamper: func(batch []elgamal.Vector) []elgamal.Vector {
				if len(batch) < 2 {
					return nil
				}
				out := make([]elgamal.Vector, len(batch))
				copy(out, batch)
				out[0] = batch[1]
				return out
			},
		})
		_, err = r.Mix(context.Background())
		if !errors.Is(err, ErrProofRejected) {
			t.Fatalf("got %v, want ErrProofRejected", err)
		}
		if !errors.Is(err, ErrRoundAborted) {
			t.Fatal("a proof rejection must also match ErrRoundAborted")
		}
	})

	t.Run("recovery-needed", func(t *testing.T) {
		small, err := NewNetwork(testNetworkConfig(NIZK, 32))
		if err != nil {
			t.Fatal(err)
		}
		r, _ := small.OpenRound(context.Background())
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("dead group %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		// Group size 3, h=1: one failure exceeds the budget.
		if err := small.FailGroupMember(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Mix(context.Background()); !errors.Is(err, ErrRecoveryNeeded) {
			t.Fatalf("got %v, want ErrRecoveryNeeded", err)
		}
	})
}

func TestErrorTaxonomyTable(t *testing.T) {
	// The sentinel hierarchy itself: leaves match their parents under
	// errors.Is, siblings and unrelated sentinels do not.
	cases := []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"trap-implies-aborted", ErrTrapTripped, ErrRoundAborted, true},
		{"proof-implies-aborted", ErrProofRejected, ErrRoundAborted, true},
		{"dup-implies-bad", ErrDuplicateSubmission, ErrBadSubmission, true},
		{"trap-not-proof", ErrTrapTripped, ErrProofRejected, false},
		{"proof-not-trap", ErrProofRejected, ErrTrapTripped, false},
		{"bad-not-aborted", ErrBadSubmission, ErrRoundAborted, false},
		{"bad-not-dup", ErrBadSubmission, ErrDuplicateSubmission, false},
		{"closed-not-aborted", ErrRoundClosed, ErrRoundAborted, false},
		{"aborted-not-trap", ErrRoundAborted, ErrTrapTripped, false},
		{"recovery-standalone", ErrRecoveryNeeded, ErrRoundAborted, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errors.Is(tc.err, tc.target); got != tc.want {
				t.Fatalf("errors.Is(%v, %v) = %v, want %v", tc.err, tc.target, got, tc.want)
			}
		})
	}
}

func TestRoundMixCancellation(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(NIZK, 32))
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("canceled %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the mix must abort before doing anything
	_, err = r.Mix(ctx)
	if err == nil {
		t.Fatal("Mix with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx.Err() lost from the chain: %v", err)
	}
	if !errors.Is(err, ErrRoundAborted) {
		t.Fatalf("cancellation must classify as ErrRoundAborted: %v", err)
	}
	// A pre-canceled Mix must not consume the batch: retrying with a
	// live context completes the round.
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatalf("retry after pre-canceled Mix: %v", err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("retry lost submissions: %d messages", len(res.Messages))
	}
}

func TestRoundMixDeadline(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(NIZK, 32))
	if err != nil {
		t.Fatal(err)
	}
	r, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("deadline %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	// A deadline far too tight for 2 iterations of real crypto.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err = r.Mix(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrRoundAborted) {
		t.Fatalf("got %v, want DeadlineExceeded classified as ErrRoundAborted", err)
	}
}

func TestObserverHooks(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	var opened, iterations, mixedRounds, failed atomic.Int64
	var accepted atomic.Int64
	var lastStats RoundStats
	var mu sync.Mutex
	n.SetObserver(&Observer{
		RoundOpened:        func(uint64) { opened.Add(1) },
		SubmissionAccepted: func(uint64, int, int) { accepted.Add(1) },
		IterationDone:      func(IterationStats) { iterations.Add(1) },
		RoundMixed: func(st RoundStats) {
			mixedRounds.Add(1)
			mu.Lock()
			lastStats = st
			mu.Unlock()
		},
		RoundFailed: func(uint64, error) { failed.Add(1) },
	})

	r, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("observed %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Mix(context.Background()); err != nil {
		t.Fatal(err)
	}

	if opened.Load() != 1 || accepted.Load() != 8 || failed.Load() != 0 {
		t.Fatalf("opened=%d accepted=%d failed=%d", opened.Load(), accepted.Load(), failed.Load())
	}
	if iterations.Load() != 2 {
		t.Fatalf("%d iteration callbacks, want 2", iterations.Load())
	}
	if mixedRounds.Load() != 1 {
		t.Fatalf("%d RoundMixed callbacks", mixedRounds.Load())
	}
	mu.Lock()
	st := lastStats
	mu.Unlock()
	if st.Submissions != 8 || st.Messages != 8 || st.Iterations != 2 || st.Duration <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Shuffles == 0 || st.ReEncs == 0 {
		t.Fatalf("work counters empty: %+v", st)
	}
}

func TestRoundTrusteeKeysAreIndependent(t *testing.T) {
	// Two concurrently open trap rounds carry distinct trustee keys, and
	// a submission encrypted for one round is rejected by... nothing at
	// submission time (keys are unlinkable), but decrypts to garbage and
	// is dropped at the finale — here we just pin key independence.
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k1, err := r1.TrusteeKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := r2.TrusteeKey()
	if err != nil {
		t.Fatal(err)
	}
	if string(k1) == string(k2) {
		t.Fatal("two open rounds share a trustee key")
	}
}
