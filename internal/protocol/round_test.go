package protocol

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"atom/internal/taxonomy"
)

func TestRoundStatePipelinedIngestion(t *testing.T) {
	// Protocol-layer pipelining: round r+1 accepts submissions while
	// round r mixes, and the two rounds' outputs stay disjoint.
	cfg := testConfig(VariantNIZK)
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(&cfg)

	submit := func(rs *RoundState, tag string, users int) map[string]bool {
		t.Helper()
		want := map[string]bool{}
		for u := 0; u < users; u++ {
			gid := u % cfg.NumGroups
			pk, _ := d.GroupPK(gid)
			msg := []byte(fmt.Sprintf("%s %d", tag, u))
			want[string(msg)] = true
			sub, err := c.Submit(msg, pk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.SubmitUser(u, sub); err != nil {
				t.Fatal(err)
			}
		}
		return want
	}

	r0, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	if r0.ID() == r1.ID() {
		t.Fatal("round ids collide")
	}
	want0 := submit(r0, "pipeline r0", 8)

	done := make(chan struct{})
	var res0 *RoundResult
	var err0 error
	go func() {
		defer close(done)
		res0, err0 = d.RunRoundCtx(context.Background(), r0, nil)
	}()

	// Ingest into r1 while r0 mixes (RunRoundCtx holds the mix lock the
	// whole time, so every submission accepted before <-done that raced
	// with it exercises the concurrent path).
	want1 := submit(r1, "pipeline r1", 8)
	<-done
	if err0 != nil {
		t.Fatal(err0)
	}

	res1, err := d.RunRoundCtx(context.Background(), r1, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, res0, want0)
	checkMessages(t, res1, want1)
}

func TestRoundStateSealedRejectsLateSubmissions(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	pk, _ := d.GroupPK(0)
	sub, err := c.Submit([]byte("early"), pk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitUser(0, sub); err != nil {
		t.Fatal(err)
	}
	rs.seal()
	late, err := c.Submit([]byte("late"), pk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitUser(1, late); !errors.Is(err, taxonomy.ErrRoundClosed) {
		t.Fatalf("late submission: got %v, want taxonomy.ErrRoundClosed", err)
	}
}

func TestRunRoundCtxCancellation(t *testing.T) {
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.RunRoundCtx(ctx, rs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if rs.Sealed() {
		t.Fatal("a dead context consumed the round")
	}
}

func TestRoundHooksFirePerIteration(t *testing.T) {
	cfg := testConfig(VariantTrap)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs := openRound(t, d)
	submitAll(t, rs, c, 8)
	var mu sync.Mutex
	var seen []IterationStats
	hooks := &RoundHooks{IterationDone: func(it IterationStats) {
		mu.Lock()
		seen = append(seen, it)
		mu.Unlock()
	}}
	res, err := d.RunRoundCtx(context.Background(), rs, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.Iterations {
		t.Fatalf("%d hook calls, want %d", len(seen), cfg.Iterations)
	}
	if len(res.Iterations) != cfg.Iterations {
		t.Fatalf("%d iteration records on result, want %d", len(res.Iterations), cfg.Iterations)
	}
	for i, it := range seen {
		if it.Layer != i {
			t.Fatalf("hook %d reports layer %d", i, it.Layer)
		}
		// Trap pairs: 8 users → 16 ciphertexts per layer.
		if it.Messages != 16 {
			t.Fatalf("layer %d: %d messages, want 16", i, it.Messages)
		}
		if it.Duration <= 0 || it.Shuffles == 0 || it.ReEncs == 0 {
			t.Fatalf("layer %d stats empty: %+v", i, it)
		}
	}
	if res.Duration <= 0 || res.Round == 0 {
		t.Fatalf("result missing round metadata: %+v", res)
	}
}

func TestDuplicateFilterSpansGroupsWithinRound(t *testing.T) {
	// The duplicate filter is round-global: the same ciphertext must be
	// rejected even when replayed with a different claimed user.
	cfg := testConfig(VariantNIZK)
	d, _ := NewDeployment(cfg)
	c, _ := NewClient(&cfg)
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	pk, _ := d.GroupPK(2)
	sub, err := c.Submit([]byte("once"), pk, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitUser(0, sub); err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitUser(5, sub); !errors.Is(err, taxonomy.ErrDuplicateSubmission) {
		t.Fatalf("replay: got %v, want taxonomy.ErrDuplicateSubmission", err)
	}
	// A fresh round has a fresh filter.
	rs2, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs2.SubmitUser(0, sub); err != nil {
		t.Fatalf("new round rejected a first-seen submission: %v", err)
	}
}
