package groupmgr

import (
	"math"
	"testing"

	"atom/internal/beacon"
)

// TestRequiredGroupSizePaperValues pins the group sizes the paper
// derives: k = 32 for f = 0.2, G = 1024, h = 1 (§4.1) and k = 33 for
// h = 2 (§4.5: "when h=2, f=20%, we need k ≥ 33").
func TestRequiredGroupSizePaperValues(t *testing.T) {
	k1, err := RequiredGroupSize(0.2, 1024, 1, DefaultSecurityBits)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != 32 {
		t.Errorf("h=1: k = %d, want 32", k1)
	}
	// For h = 2 the paper states k ≥ 33 (§4.5) but its own Appendix B
	// binomial union bound yields 35; we pin our formula's value and
	// check the finite-roster (hypergeometric) model lands in between.
	k2, err := RequiredGroupSize(0.2, 1024, 2, DefaultSecurityBits)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != 35 {
		t.Errorf("h=2 binomial: k = %d, want 35", k2)
	}
	kf, err := RequiredGroupSizeFinite(0.2, 1024, 1024, 2, DefaultSecurityBits)
	if err != nil {
		t.Fatal(err)
	}
	if kf < 33 || kf > 35 {
		t.Errorf("h=2 finite-roster: k = %d, want within [33,35]", kf)
	}
	if kf > k2 {
		t.Errorf("finite-roster k=%d should not exceed binomial k=%d", kf, k2)
	}
}

func TestRequiredGroupSizeFiniteH1MatchesPaper(t *testing.T) {
	k, err := RequiredGroupSizeFinite(0.2, 1024, 1024, 1, DefaultSecurityBits)
	if err != nil {
		t.Fatal(err)
	}
	// Without replacement the failure probability only shrinks, so k ≤ 32;
	// it should stay close (within a couple of servers).
	if k > 32 || k < 29 {
		t.Errorf("finite-roster h=1: k = %d, want ≈32", k)
	}
}

func TestRequiredGroupSizeFiniteRejectsBadInput(t *testing.T) {
	if _, err := RequiredGroupSizeFinite(0, 1024, 1024, 1, 64); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := RequiredGroupSizeFinite(0.2, 0, 1024, 1, 64); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := RequiredGroupSizeFinite(0.9, 16, 1024, 8, 64); err == nil {
		t.Error("unsatisfiable parameters accepted")
	}
}

// TestFigure13Shape checks the Figure 13 curve: k grows with h, starting
// at 32 for h=1 and staying within the figure's plotted range (roughly
// 30–70 for h up to 20).
func TestFigure13Shape(t *testing.T) {
	prev := 0
	for h := 1; h <= 20; h++ {
		k, err := RequiredGroupSize(0.2, 1024, h, DefaultSecurityBits)
		if err != nil {
			t.Fatal(err)
		}
		if k < prev {
			t.Errorf("h=%d: k=%d decreased from %d", h, k, prev)
		}
		if k < 30 || k > 75 {
			t.Errorf("h=%d: k=%d outside Figure 13's plotted range", h, k)
		}
		prev = k
	}
}

func TestLogFailureProbSanity(t *testing.T) {
	// h=1: failure prob is exactly f^k, so log2 = k·log2(f).
	got := LogFailureProb(32, 0.2, 1)
	want := 32 * math.Log2(0.2)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("LogFailureProb(32, 0.2, 1) = %v, want %v", got, want)
	}
	// Larger h makes failure more likely (log prob increases).
	if LogFailureProb(32, 0.2, 2) <= LogFailureProb(32, 0.2, 1) {
		t.Error("failure probability should grow with h")
	}
	// Larger k makes failure less likely.
	if LogFailureProb(40, 0.2, 1) >= LogFailureProb(32, 0.2, 1) {
		t.Error("failure probability should shrink with k")
	}
}

func TestRequiredGroupSizeRejectsBadInput(t *testing.T) {
	if _, err := RequiredGroupSize(0, 1024, 1, 64); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := RequiredGroupSize(1.0, 1024, 1, 64); err == nil {
		t.Error("f=1 accepted")
	}
	if _, err := RequiredGroupSize(0.2, 0, 1, 64); err == nil {
		t.Error("G=0 accepted")
	}
	if _, err := RequiredGroupSize(0.999999, 4096, 1, 64); err == nil {
		t.Error("unsatisfiable f accepted")
	}
}

func testConfig() Config {
	return Config{
		NumServers: 64,
		NumGroups:  16,
		GroupSize:  8,
		HonestMin:  2,
		BuddyCount: 2,
	}
}

func TestFormDeterministicAndValid(t *testing.T) {
	cfg := testConfig()
	b := beacon.New([]byte("round seed"))
	g1, err := Form(cfg, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Form(cfg, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != cfg.NumGroups {
		t.Fatalf("formed %d groups, want %d", len(g1), cfg.NumGroups)
	}
	for i := range g1 {
		if g1[i].ID != i {
			t.Errorf("group %d has id %d", i, g1[i].ID)
		}
		if len(g1[i].Members) != cfg.GroupSize {
			t.Errorf("group %d has %d members", i, len(g1[i].Members))
		}
		// Determinism.
		for j := range g1[i].Members {
			if g1[i].Members[j] != g2[i].Members[j] {
				t.Fatalf("group formation is not deterministic")
			}
		}
		// Distinct members within a group.
		seen := map[int]bool{}
		for _, m := range g1[i].Members {
			if m < 0 || m >= cfg.NumServers || seen[m] {
				t.Fatalf("group %d has invalid/duplicate member %d", i, m)
			}
			seen[m] = true
		}
		// Buddies: correct count, never self.
		if len(g1[i].Buddies) != cfg.BuddyCount {
			t.Errorf("group %d has %d buddies", i, len(g1[i].Buddies))
		}
		for _, bg := range g1[i].Buddies {
			if bg == i || bg < 0 || bg >= cfg.NumGroups {
				t.Errorf("group %d has invalid buddy %d", i, bg)
			}
		}
	}
	// Different rounds give different layouts (overwhelmingly).
	g3, _ := Form(cfg, b, 6)
	same := true
	for i := range g1 {
		for j := range g1[i].Members {
			if g1[i].Members[j] != g3[i].Members[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("two different rounds produced identical groups")
	}
}

func TestFormStaggersPositions(t *testing.T) {
	// With rotation by gid, the member lists of consecutive groups should
	// not all start at index 0 of the sample — verify rotation varies.
	cfg := testConfig()
	cfg.NumGroups = cfg.GroupSize // one full rotation cycle
	b := beacon.New([]byte("stagger"))
	groups, err := Form(cfg, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The same server should appear at different positions across the
	// groups it belongs to, at least once.
	varied := false
	for srv := 0; srv < cfg.NumServers && !varied; srv++ {
		positions := PositionsOf(groups, srv)
		first := -1
		for _, p := range positions {
			if p == -1 {
				continue
			}
			if first == -1 {
				first = p
			} else if p != first {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Error("no server ever changed position across groups; staggering inert")
	}
}

func TestThreshold(t *testing.T) {
	cfg := testConfig() // k=8, h=2
	if got := cfg.Threshold(); got != 7 {
		t.Errorf("threshold = %d, want 7", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{NumServers: 0, NumGroups: 1, GroupSize: 1, HonestMin: 1},
		{NumServers: 4, NumGroups: 1, GroupSize: 5, HonestMin: 1},
		{NumServers: 4, NumGroups: 0, GroupSize: 2, HonestMin: 1},
		{NumServers: 4, NumGroups: 2, GroupSize: 2, HonestMin: 3},
		{NumServers: 4, NumGroups: 1, GroupSize: 2, HonestMin: 1, BuddyCount: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
}
