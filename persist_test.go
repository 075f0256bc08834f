package atom

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"atom/internal/store"
	"atom/internal/taxonomy"
)

// TestServiceResumesSealedRoundAfterCrash is the coordinator-side
// crash-restart contract: a round sealed and journaled but never mixed
// (the process died between seal and publish) must be re-dispatched by
// the next Serve from the same state dir and publish every admitted
// message — and its journal record must be retired once it does.
func TestServiceResumesSealedRoundAfterCrash(t *testing.T) {
	cfg := Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: NIZK, Iterations: 3,
		Seed: []byte("persist-service-test"),
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutDeployment(n.MarshalState()); err != nil {
		t.Fatal(err)
	}

	// Admit a batch and seal it — journaling the seal the way the
	// service's scheduler does — then "crash" before anything mixes.
	r := openTestRound(t, n)
	const users = 8
	want := make(map[string]bool, users)
	for u := 0; u < users; u++ {
		msg := fmt.Sprintf("crash-redispatch %02d", u)
		want[msg] = true
		if err := r.Submit(u, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := n.d.SealRound(r.rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RecordSealed(sealed.Round(), sealed.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The "new process": replay the journal, restore the keys, and let
	// Serve re-dispatch whatever was sealed but never published.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if pending := st2.PendingSealed(); len(pending) != 1 {
		t.Fatalf("replay found %d pending sealed rounds, want 1", len(pending))
	}
	state := st2.State()
	n2, err := RestoreNetwork(cfg, state.Deployment, state.MaxRound())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	svc, err := n2.Serve(ctx, ServeOptions{Journal: st2, RoundInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	out, err := svc.WaitRound(ctx, sealed.Round())
	if err != nil {
		t.Fatalf("resumed round never published: %v", err)
	}
	if out.Err != nil {
		t.Fatalf("resumed round published a failure: %v", out.Err)
	}
	for _, m := range out.Messages {
		delete(want, string(m))
	}
	if len(want) > 0 {
		t.Fatalf("resumed round lost %d of %d admitted messages: %v", len(want), users, want)
	}
	if pending := st2.PendingSealed(); len(pending) != 0 {
		t.Fatalf("published round not retired from the journal: %d still pending", len(pending))
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("journal error surfaced at close: %v", err)
	}
}

// TestPublicPersistenceSentinels pins the public error taxonomy for the
// durable-state subsystem: corruption detected anywhere in the stack
// (the store's framing or the protocol's restore validation) matches
// ErrStateCorrupt, and a group-config hash refusal matches
// ErrConfigMismatch.
func TestPublicPersistenceSentinels(t *testing.T) {
	cfg := Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: NIZK, Iterations: 3,
		Seed: []byte("persist-sentinel-test"),
	}
	if _, err := RestoreNetwork(cfg, []byte{0xff, 0x01, 0x02}, 0); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("garbage state restored with %v, want ErrStateCorrupt", err)
	}
	if err := fmt.Errorf("daemon: %w", taxonomy.ErrConfigMismatch); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("wrapped mismatch is %v, want ErrConfigMismatch", err)
	}
	if err := fmt.Errorf("replay: %w", taxonomy.ErrStateCorrupt); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("wrapped store corruption is %v, want ErrStateCorrupt", err)
	}
}
