package atom

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func testNetworkConfig(v Variant, msgSize int) Config {
	return Config{
		Servers:     12,
		Groups:      4,
		GroupSize:   3,
		MessageSize: msgSize,
		Variant:     v,
		Iterations:  2,
		Seed:        []byte("public-api-test"),
	}
}

// openTestRound opens the round a test submits into and then mixes.
func openTestRound(t *testing.T, n *Network) *Round {
	t.Helper()
	r, err := n.OpenRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPublicAPINIZKRound(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(NIZK, 32))
	if err != nil {
		t.Fatal(err)
	}
	if n.Groups() != 4 {
		t.Fatalf("Groups = %d", n.Groups())
	}
	r := openTestRound(t, n)
	want := map[string]bool{}
	for u := 0; u < 8; u++ {
		msg := fmt.Sprintf("public msg %d", u)
		want[msg] = true
		if err := r.Submit(u, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages, want 8", len(res.Messages))
	}
	for _, m := range res.Messages {
		if !want[string(m)] {
			t.Errorf("unexpected message %q", m)
		}
	}
}

func TestPublicAPITrapRound(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	r := openTestRound(t, n)
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("trap msg %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages, want 8", len(res.Messages))
	}
}

func TestPublicAPIEncodedSubmissionRoundTrip(t *testing.T) {
	// The remote-client path: Client encrypts locally, the network
	// accepts the wire form. Both variants.
	for _, v := range []Variant{NIZK, Trap} {
		cfg := testNetworkConfig(v, 32)
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := n.EntryKey(1)
		if err != nil {
			t.Fatal(err)
		}
		r := openTestRound(t, n)
		var trustee []byte
		if v == Trap {
			if trustee, err = r.TrusteeKey(); err != nil {
				t.Fatal(err)
			}
		}
		wire, err := c.EncryptSubmission([]byte("remote user"), entry, trustee, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitEncoded(7, wire); err != nil {
			t.Fatal(err)
		}
		// Replay of the same wire bytes must be rejected.
		if err := r.SubmitEncoded(8, wire); err == nil {
			t.Fatalf("variant %v: replayed submission accepted", v)
		}
		// Fill remaining groups so batches divide evenly, then run.
		for u := 0; u < 8; u++ {
			if err := r.Submit(u, []byte(fmt.Sprintf("filler %d", u))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Mix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Messages {
			if string(m) == "remote user" {
				found = true
			}
		}
		if !found {
			t.Fatalf("variant %v: remote submission lost", v)
		}
	}
}

func TestPublicAPIMicroblog(t *testing.T) {
	cfg := testNetworkConfig(Trap, MicroblogMessageSize)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMicroblog(n)
	if err != nil {
		t.Fatal(err)
	}
	posts := []string{"rally at dawn", "they are watching the bridges", "stay safe", "spread the word"}
	for u, p := range posts {
		if err := mb.Post(u, p); err != nil {
			t.Fatal(err)
		}
	}
	published, err := mb.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(published) != len(posts) {
		t.Fatalf("published %d, want %d", len(published), len(posts))
	}
	if len(mb.Board()) != len(posts) {
		t.Fatalf("board has %d posts", len(mb.Board()))
	}
}

func TestPublicAPIDialing(t *testing.T) {
	cfg := testNetworkConfig(Trap, DialMessageSize)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewDialIdentity()
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewDialRequest(bob.Public(), alice.Public())
	if err != nil {
		t.Fatal(err)
	}
	r := openTestRound(t, n)
	if err := r.Submit(0, req); err != nil {
		t.Fatal(err)
	}
	// Cover traffic: other users dial each other.
	for u := 1; u < 8; u++ {
		x, _ := NewDialIdentity()
		y, _ := NewDialIdentity()
		dial, err := NewDialRequest(x.Public(), y.Public())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Submit(u, dial); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := NewMailboxes(4, res)
	if err != nil {
		t.Fatal(err)
	}
	if boxes.Total() != 8 || boxes.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d", boxes.Total(), boxes.Dropped())
	}
	var got [][]byte
	for _, entry := range boxes.BoxFor(bob.MailboxID()) {
		if pk, ok := bob.OpenDialRequest(entry); ok {
			got = append(got, pk)
		}
	}
	if len(got) != 1 || string(got[0]) != string(alice.Public()) {
		t.Fatalf("Bob recovered %d keys, want Alice's", len(got))
	}
}

func TestPublicAPIDialNoise(t *testing.T) {
	noise := DialNoise{Mu: 20, Scale: 3}
	dummies, err := noise.SampleDummies()
	if err != nil {
		t.Fatal(err)
	}
	if len(dummies) < 5 || len(dummies) > 60 {
		t.Fatalf("sampled %d dummies around μ=20 (possible but ~never)", len(dummies))
	}
	for _, d := range dummies {
		if len(d) != DialRequestSize {
			t.Fatalf("dummy of %d bytes", len(d))
		}
	}
}

func TestPublicAPIFaultRecovery(t *testing.T) {
	cfg := testNetworkConfig(NIZK, 32)
	cfg.GroupSize = 4
	cfg.HonestServers = 2
	cfg.Buddies = 2
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailGroupMember(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.FailGroupMember(2, 1); err != nil {
		t.Fatal(err)
	}
	need, err := n.NeedsRecovery(2)
	if err != nil {
		t.Fatal(err)
	}
	if !need {
		t.Fatal("group 2 should need recovery")
	}
	if err := n.Recover(2, []int{50, 51}); err != nil {
		t.Fatal(err)
	}
	need, _ = n.NeedsRecovery(2)
	if need {
		t.Fatal("recovery did not restore the group")
	}
	r := openTestRound(t, n)
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("m%d", u))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Mix(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredGroupSizePublic(t *testing.T) {
	k, err := RequiredGroupSize(0.2, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 32 {
		t.Fatalf("k = %d, want the paper's 32", k)
	}
}

func TestEvaluationPaperModel(t *testing.T) {
	ev, err := NewEvaluation(false)
	if err != nil {
		t.Fatal(err)
	}
	t3 := ev.Table3()
	if !strings.Contains(t3, "Enc") || !strings.Contains(t3, "ShufProof") {
		t.Errorf("Table 3 output incomplete:\n%s", t3)
	}
	f9, err := ev.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9, "microblog") {
		t.Errorf("Figure 9 output incomplete:\n%s", f9)
	}
	t12, err := ev.Table12()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"Atom", "Riposte", "Vuvuzela", "Alpenhorn"} {
		if !strings.Contains(t12, sys) {
			t.Errorf("Table 12 missing %s:\n%s", sys, t12)
		}
	}
	f13, err := ev.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f13, "h") {
		t.Errorf("Figure 13 output incomplete:\n%s", f13)
	}
}

func TestPublicAPISwitchVariant(t *testing.T) {
	// §4.6: a deployment under persistent trap-variant disruption falls
	// back to NIZKs through the public API.
	n, err := NewNetwork(testNetworkConfig(Trap, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SwitchVariant(NIZK); err != nil {
		t.Fatal(err)
	}
	r := openTestRound(t, n)
	for u := 0; u < 8; u++ {
		if err := r.Submit(u, []byte(fmt.Sprintf("post-fallback %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Mix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Messages) != 8 {
		t.Fatalf("%d messages after fallback", len(res.Messages))
	}
	// Rounds opened in NIZK mode carry no trustee key.
	if _, err := openTestRound(t, n).TrusteeKey(); err == nil {
		t.Fatal("NIZK network still advertises a trustee key")
	}
}

func TestConfigValidationSurfacesErrors(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewClient(Config{}); err == nil {
		t.Fatal("empty client config accepted")
	}
	cfg := testNetworkConfig(NIZK, 32)
	cfg.Topology = "torus"
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
