package atom

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"atom/internal/store"
)

// The committed fixture under testdata/pr6-state is a durable state
// directory — deployment key material plus one sealed-but-unpublished
// round — written by the crypto backend that existed when the fixture
// was generated. Replaying it here proves that state persisted by an
// older build (PR 6's WAL + snapshot format, with point and scalar
// encodings produced by the big.Int/crypto-elliptic backend) restores
// and mixes cleanly on the current backend: the wire and store formats
// are frozen even as the arithmetic underneath is rebuilt.
//
// Regenerate (only needed when deliberately re-seeding the fixture):
//
//	ATOM_REGEN_PR6_FIXTURE=1 go test -run TestPR6StateFixture -v .

const pr6FixtureDir = "testdata/pr6-state"

func pr6FixtureConfig() Config {
	return Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: NIZK, Iterations: 3,
		Seed: []byte("pr6-crypto-fixture"),
	}
}

func pr6FixtureMessages() []string {
	msgs := make([]string, 8)
	for u := range msgs {
		msgs[u] = fmt.Sprintf("pr6 fixture msg %02d", u)
	}
	return msgs
}

// TestPR6StateFixtureGenerate writes the fixture. It is a no-op unless
// ATOM_REGEN_PR6_FIXTURE=1 is set, so normal test runs never rewrite
// the committed state directory.
func TestPR6StateFixtureGenerate(t *testing.T) {
	if os.Getenv("ATOM_REGEN_PR6_FIXTURE") != "1" {
		t.Skip("fixture regeneration requires ATOM_REGEN_PR6_FIXTURE=1")
	}
	if err := os.RemoveAll(pr6FixtureDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(pr6FixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(pr6FixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pr6FixtureConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutDeployment(n.MarshalState()); err != nil {
		t.Fatal(err)
	}
	r := openTestRound(t, n)
	for u, msg := range pr6FixtureMessages() {
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
	t.Logf("fixture regenerated in %s (sealed round %d)", pr6FixtureDir, sealed.Round())
}

// TestPR6StateFixtureReplays restores the committed fixture and drives
// the sealed round to publication, asserting every admitted message
// survives. This is the cross-backend replay guarantee of the crypto
// core rebuild: encodings in the WAL decode bit-for-bit, and proofs
// produced by the old backend verify under the new one.
func TestPR6StateFixtureReplays(t *testing.T) {
	if _, err := os.Stat(filepath.Join(pr6FixtureDir, "")); err != nil {
		t.Fatalf("missing committed fixture %s: %v", pr6FixtureDir, err)
	}
	// Replay from a copy so the committed fixture stays pristine (the
	// store retires published rounds from its journal in place).
	dir := t.TempDir()
	if err := copyDir(pr6FixtureDir, dir); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pending := st.PendingSealed()
	if len(pending) != 1 {
		t.Fatalf("fixture holds %d pending sealed rounds, want 1", len(pending))
	}
	state := st.State()
	n, err := RestoreNetwork(pr6FixtureConfig(), state.Deployment, state.MaxRound())
	if err != nil {
		t.Fatalf("restoring pre-rebuild deployment state: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	svc, err := n.Serve(ctx, ServeOptions{Journal: st, RoundInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var round uint64
	for r := range pending {
		round = r
	}
	out, err := svc.WaitRound(ctx, round)
	if err != nil {
		t.Fatalf("fixture round never published: %v", err)
	}
	if out.Err != nil {
		t.Fatalf("fixture round published a failure: %v", out.Err)
	}
	want := make(map[string]bool)
	for _, m := range pr6FixtureMessages() {
		want[m] = true
	}
	for _, m := range out.Messages {
		delete(want, string(m))
	}
	if len(want) > 0 {
		t.Fatalf("replayed round lost %d messages: %v", len(want), want)
	}
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		w := bufio.NewWriter(out)
		if _, err := w.ReadFrom(in); err != nil {
			return err
		}
		return w.Flush()
	})
}
