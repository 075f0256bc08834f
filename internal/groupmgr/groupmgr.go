// Package groupmgr forms and manages Atom's anytrust and many-trust
// server groups (paper §4.1, §4.5, §4.7 and Appendix B).
//
// Responsibilities:
//
//   - computing the minimum group size k such that every group contains
//     at least h honest servers except with probability < 2⁻λ, given the
//     adversarial fraction f and the number of groups G (Appendix B,
//     Figure 13);
//   - sampling the groups for a round from the public randomness beacon;
//   - staggering server positions across groups so servers stay busy
//     (§4.7: "server s is the first server in the first group, second
//     server in the second group, etc.");
//   - assigning buddy groups for fault recovery (§4.5).
package groupmgr

import (
	"fmt"
	"math"

	"atom/internal/beacon"
)

// DefaultSecurityBits is the paper's group-failure probability bound
// exponent: groups are sized so Pr[any group lacks h honest servers]
// < 2⁻⁶⁴ (§4.1).
const DefaultSecurityBits = 64

// MaxGroupSize bounds the group-size search; the paper's parameter
// ranges (f ≤ 0.3, h ≤ 20) stay well below it.
const MaxGroupSize = 4096

// logBinom returns ln C(k, i) via the log-gamma function.
func logBinom(k, i int) float64 {
	lg := func(n int) float64 {
		v, _ := math.Lgamma(float64(n + 1))
		return v
	}
	return lg(k) - lg(i) - lg(k-i)
}

// LogFailureProb returns log2 of the probability that one group of k
// servers drawn with adversarial fraction f contains fewer than h honest
// servers: Σ_{i=0}^{h-1} C(k,i)·(1−f)^i·f^{k−i}, computed in log space
// for numerical stability.
func LogFailureProb(k int, f float64, h int) float64 {
	if h < 1 || k < h {
		return 0 // probability 1
	}
	lnF := math.Log(f)
	lnHonest := math.Log(1 - f)
	// log-sum-exp over the h tail terms.
	maxLn := math.Inf(-1)
	terms := make([]float64, 0, h)
	for i := 0; i < h; i++ {
		ln := logBinom(k, i) + float64(i)*lnHonest + float64(k-i)*lnF
		terms = append(terms, ln)
		if ln > maxLn {
			maxLn = ln
		}
	}
	sum := 0.0
	for _, ln := range terms {
		sum += math.Exp(ln - maxLn)
	}
	return (maxLn + math.Log(sum)) / math.Ln2
}

// RequiredGroupSize returns the smallest k such that with G groups the
// union-bound failure probability G·Pr[one group bad] is below 2⁻bits
// (Appendix B). h is the number of honest servers required per group
// (h = 1 for plain anytrust; h−1 is the fault-tolerance budget).
func RequiredGroupSize(f float64, G, h, bits int) (int, error) {
	if f <= 0 || f >= 1 {
		return 0, fmt.Errorf("groupmgr: adversarial fraction %v out of (0,1)", f)
	}
	if G < 1 || h < 1 || bits < 1 {
		return 0, fmt.Errorf("groupmgr: invalid parameters G=%d h=%d bits=%d", G, h, bits)
	}
	logG := math.Log2(float64(G))
	for k := h; k <= MaxGroupSize; k++ {
		if logG+LogFailureProb(k, f, h) < -float64(bits) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("groupmgr: no group size ≤ %d meets 2^-%d for f=%v h=%d G=%d",
		MaxGroupSize, bits, f, h, G)
}

// RequiredGroupSizeFinite is the sampling-without-replacement variant of
// RequiredGroupSize: the adversary controls exactly m = ⌊f·N⌋ of N
// concrete servers (the floor: a fractional f·N rounds down to whole
// servers) and groups are drawn without replacement, so the per-group
// failure probability is a hypergeometric rather than binomial tail.
// This models a real deployment with a fixed server roster (the paper's
// 1,024-server evaluation) and yields slightly smaller k than the
// binomial bound for h > 1.
//
// Note on the paper's numbers: Appendix B's formula is the binomial
// union bound, which yields k = 32 for h = 1 (matching §4.1) but k = 35
// for h = 2, whereas §4.5 reports k ≥ 33; the finite-roster model closes
// most of that gap.
func RequiredGroupSizeFinite(f float64, N, G, h, bits int) (int, error) {
	if f <= 0 || f >= 1 {
		return 0, fmt.Errorf("groupmgr: adversarial fraction %v out of (0,1)", f)
	}
	if N < 1 || G < 1 || h < 1 || bits < 1 {
		return 0, fmt.Errorf("groupmgr: invalid parameters N=%d G=%d h=%d bits=%d", N, G, h, bits)
	}
	m := int(f * float64(N)) // malicious servers
	logG := math.Log2(float64(G))
	for k := h; k <= N && k <= MaxGroupSize; k++ {
		if logG+logHypergeomTail(N, m, k, h) < -float64(bits) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("groupmgr: no feasible group size for f=%v N=%d h=%d G=%d", f, N, h, G)
}

// logHypergeomTail returns log2 Pr[fewer than h honest servers in a
// group of k drawn without replacement from N servers of which m are
// malicious]: Σ_{i=0}^{h-1} C(N−m, i)·C(m, k−i) / C(N, k).
func logHypergeomTail(N, m, k, h int) float64 {
	honest := N - m
	lnC := func(n, r int) float64 {
		if r < 0 || r > n {
			return math.Inf(-1)
		}
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(r + 1))
		c, _ := math.Lgamma(float64(n - r + 1))
		return a - b - c
	}
	denom := lnC(N, k)
	maxLn := math.Inf(-1)
	terms := make([]float64, 0, h)
	for i := 0; i < h; i++ {
		ln := lnC(honest, i) + lnC(m, k-i) - denom
		terms = append(terms, ln)
		if ln > maxLn {
			maxLn = ln
		}
	}
	if math.IsInf(maxLn, -1) {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, ln := range terms {
		sum += math.Exp(ln - maxLn)
	}
	return (maxLn + math.Log(sum)) / math.Ln2
}

// Group is one anytrust (or many-trust) group for a round.
type Group struct {
	ID      int
	Members []int // server ids, in protocol order (stagger-rotated)
	Buddies []int // buddy group ids for share escrow (§4.5)
}

// Config parameterizes group formation for a round.
type Config struct {
	NumServers int // N: servers available this round
	NumGroups  int // G: groups to form
	GroupSize  int // k: servers per group
	HonestMin  int // h: honest servers required (threshold = k-(h-1))
	BuddyCount int // buddy groups per group (0 disables escrow)
}

// Threshold returns the number of members that must participate in a
// mixing step: k − (h − 1).
func (c Config) Threshold() int { return c.GroupSize - (c.HonestMin - 1) }

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.NumServers < 1:
		return fmt.Errorf("groupmgr: no servers")
	case c.GroupSize < 1 || c.GroupSize > c.NumServers:
		return fmt.Errorf("groupmgr: group size %d with %d servers", c.GroupSize, c.NumServers)
	case c.NumGroups < 1:
		return fmt.Errorf("groupmgr: no groups")
	case c.HonestMin < 1 || c.HonestMin > c.GroupSize:
		return fmt.Errorf("groupmgr: h=%d out of range for k=%d", c.HonestMin, c.GroupSize)
	case c.BuddyCount < 0 || (c.BuddyCount > 0 && c.NumGroups < 2):
		return fmt.Errorf("groupmgr: %d buddies with %d groups", c.BuddyCount, c.NumGroups)
	}
	return nil
}

// Form samples the round's groups from the beacon. Every group is a
// uniform sample of k distinct servers (servers may serve in multiple
// groups); member order is rotated by the group id to stagger positions
// (§4.7); and each group is assigned BuddyCount buddy groups.
//
// The sampling is deterministic given the beacon value and round, so
// every participant computes the identical group layout without
// communication. Any beacon.Source works — the deterministic hash
// chain or a verifiable threshold Chain; a source that has not yet
// produced the round returns an error rather than degenerate groups.
func Form(cfg Config, src beacon.Source, round uint64) ([]*Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	value := src.Round(round)
	if value == nil {
		return nil, fmt.Errorf("groupmgr: beacon has no output for round %d", round)
	}
	stream := beacon.StreamFrom(value, "group-formation")
	groups := make([]*Group, cfg.NumGroups)
	for gid := 0; gid < cfg.NumGroups; gid++ {
		// Sample k distinct servers via a partial Fisher–Yates over ids.
		members := sampleDistinct(stream, cfg.NumServers, cfg.GroupSize)
		// Stagger: rotate member order by gid so a server occupying
		// position p in one group tends to occupy p+1 in the next.
		rot := gid % cfg.GroupSize
		rotated := append(append([]int(nil), members[rot:]...), members[:rot]...)
		g := &Group{ID: gid, Members: rotated}
		for bIdx := 1; bIdx <= cfg.BuddyCount; bIdx++ {
			g.Buddies = append(g.Buddies, (gid+bIdx)%cfg.NumGroups)
		}
		groups[gid] = g
	}
	return groups, nil
}

// sampleDistinct draws k distinct values from [0, n) using the stream.
func sampleDistinct(s *beacon.Stream, n, k int) []int {
	// For small k relative to n, rejection sampling into a set is cheap;
	// for dense draws fall back to a partial shuffle.
	if k*4 < n {
		seen := make(map[int]bool, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.Intn(n)
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	perm := s.Perm(n)
	return perm[:k]
}

// PositionsOf returns, for each group, the position of the given server
// in that group (or -1), a helper for utilization accounting (§4.7).
func PositionsOf(groups []*Group, server int) []int {
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i] = -1
		for pos, m := range g.Members {
			if m == server {
				out[i] = pos
				break
			}
		}
	}
	return out
}
