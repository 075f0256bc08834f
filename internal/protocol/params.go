// Package protocol implements the Atom protocol itself (paper §4): the
// basic anytrust group-shuffle of Algorithm 1, the NIZK-hardened variant
// of Algorithm 2, the trap-message variant with trustees (§4.4), fault
// tolerance via threshold many-trust groups and buddy escrow (§4.5), and
// the retroactive malicious-user identification procedure (§4.6).
//
// The package executes a complete deployment in-process with real
// cryptography: groups are formed from the beacon, group keys are
// generated with DVSS, user submissions carry NIZKs, and every mixing
// iteration performs the real shuffle/reencrypt chain with proof
// verification (NIZK variant) or trap accounting (trap variant). The
// cmd/atomd daemon drives the same code over TCP transport; the
// large-scale simulator (internal/sim) reuses this package's cost
// structure with modeled latencies, mirroring the paper's own
// methodology for networks beyond 1,024 servers.
package protocol

import (
	"fmt"
	"runtime"

	"atom/internal/ecc"
	"atom/internal/topology"
)

// Variant selects the active-attack defense (§4.3 vs §4.4).
type Variant int

const (
	// VariantNIZK uses verifiable shuffles and verifiable decryption
	// (Algorithm 2): misbehavior is detected proactively, at roughly 4×
	// the trap variant's cost (§6.1).
	VariantNIZK Variant = iota
	// VariantTrap uses trap messages and trustees (§4.4): cheaper, with
	// the slightly weaker guarantee that an adversary can remove κ honest
	// messages only with probability 2^−κ.
	VariantTrap
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantNIZK:
		return "nizk"
	case VariantTrap:
		return "trap"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// MixConfig tunes the parallel mixing engine (paper Figure 7: a mixing
// iteration scales near-linearly with cores). Every group fans the
// per-message cryptography of its iteration — shuffle rerandomization,
// re-encryption, proof generation, and proof verification — over a
// bounded worker pool of this size.
type MixConfig struct {
	// Workers is the worker-goroutine count per group. Zero or negative
	// selects the automatic policy: the available CPUs divided evenly
	// among the groups mixing in-process (minimum 1), since a real
	// deployment's groups live on separate machines but ours share one.
	Workers int
}

// effectiveWorkers resolves the knob for a deployment of `groups`
// in-process groups.
func (m MixConfig) effectiveWorkers(groups int) int {
	if m.Workers >= 1 {
		return m.Workers
	}
	if groups < 1 {
		groups = 1
	}
	w := runtime.GOMAXPROCS(0) / groups
	if w < 1 {
		w = 1
	}
	return w
}

// Config describes one Atom deployment.
type Config struct {
	// NumServers is the total server roster size N.
	NumServers int
	// NumGroups is G, the number of groups per topology layer.
	NumGroups int
	// GroupSize is k, servers per group.
	GroupSize int
	// HonestMin is h: the deployment tolerates h−1 failures per group
	// (§4.5). h = 1 gives plain anytrust groups.
	HonestMin int
	// MessageSize is the fixed plaintext size in bytes; every submission
	// is padded to it (§2: "each user pads her message up to a fixed
	// length").
	MessageSize int
	// Variant selects NIZK or trap protection.
	Variant Variant
	// Iterations is T, the number of mixing iterations (the paper's
	// deployment uses T = 10 on the square network).
	Iterations int
	// Topology names the permutation network: "square" (default) or
	// "butterfly".
	Topology string
	// ButterflyReps is the repetition count for the butterfly topology.
	ButterflyReps int
	// NumTrustees is the size of the extra trustee group (trap variant).
	NumTrustees int
	// BuddyCount is the number of buddy groups escrowing each group's
	// key shares (0 disables escrow).
	BuddyCount int
	// Mix tunes the parallel mixing engine (see MixConfig).
	Mix MixConfig
	// Seed seeds the randomness beacon for deterministic group formation.
	Seed []byte
}

// Validate checks the configuration and applies paper defaults for
// unset optional fields.
func (c *Config) Validate() error {
	if c.NumServers < 1 {
		return fmt.Errorf("protocol: config needs servers")
	}
	if c.NumGroups < 1 {
		return fmt.Errorf("protocol: config needs groups")
	}
	if c.GroupSize < 1 || c.GroupSize > c.NumServers {
		return fmt.Errorf("protocol: group size %d invalid for %d servers", c.GroupSize, c.NumServers)
	}
	if c.HonestMin < 1 {
		c.HonestMin = 1
	}
	if c.HonestMin > c.GroupSize {
		return fmt.Errorf("protocol: h=%d exceeds group size %d", c.HonestMin, c.GroupSize)
	}
	if c.MessageSize < 1 {
		return fmt.Errorf("protocol: message size %d", c.MessageSize)
	}
	// padMessage frames the plaintext with a uint16 length prefix, so a
	// message of more than 65535 bytes silently could not round-trip —
	// reject such configurations here rather than corrupting payloads.
	if c.MessageSize-2 > 65535 {
		return fmt.Errorf("protocol: message size %d exceeds the %d-byte framing limit (uint16 length prefix)",
			c.MessageSize, 65535+2)
	}
	if c.Iterations < 1 {
		c.Iterations = 10
	}
	if c.Topology == "" {
		c.Topology = "square"
	}
	if c.Variant == VariantTrap && c.NumTrustees < 1 {
		c.NumTrustees = c.GroupSize
	}
	if len(c.Seed) == 0 {
		c.Seed = []byte("atom/default-seed")
	}
	return nil
}

// Threshold returns the number of group members that participate in each
// mixing step: k − (h − 1).
func (c *Config) Threshold() int { return c.GroupSize - (c.HonestMin - 1) }

// BuildTopology constructs the configured permutation network.
func (c *Config) BuildTopology() (topology.Topology, error) {
	switch c.Topology {
	case "square":
		return topology.NewSquare(c.NumGroups, c.Iterations)
	case "butterfly":
		reps := c.ButterflyReps
		if reps < 1 {
			reps = 2
		}
		return topology.NewButterfly(c.NumGroups, reps)
	default:
		return nil, fmt.Errorf("protocol: unknown topology %q", c.Topology)
	}
}

// NumPoints returns the number of curve points per payload vector. In
// the trap variant the payload is the CCA2 inner ciphertext (message +
// envelope overhead + the 1-byte kind tag); in the NIZK variant it is
// the padded plaintext plus the tag.
func (c *Config) NumPoints() int {
	return ecc.PointsPerMessage(c.PayloadBytes())
}

// PayloadBytes returns the byte length of the plaintext that each
// routed vector must carry.
func (c *Config) PayloadBytes() int {
	if c.Variant == VariantTrap {
		return innerCiphertextLen(c.MessageSize)
	}
	return 1 + c.MessageSize // kind tag + padded message
}
