// Package atom is a from-scratch Go implementation of Atom, the
// horizontally scaling strong-anonymity system of Kwon, Corrigan-Gibbs,
// Devadas and Ford (SOSP 2017).
//
// Atom is an anonymous broadcast primitive for short, latency-tolerant
// messages. Servers are organized into many small "anytrust" groups —
// each containing at least one honest server with overwhelming
// probability — wired into a random permutation network. Each group
// collectively shuffles and re-encrypts the small batch of ciphertexts
// it holds and forwards slices of it to its neighbor groups; after T
// iterations the network as a whole has applied a near-uniform random
// permutation to all messages, and the exit groups reveal the
// anonymized plaintexts. Each server touches only O(M/N) of the M
// messages, so capacity scales with the number of servers N, yet every
// user is anonymous among all honest users against an adversary
// controlling the network, a constant fraction of servers, and any
// number of users.
//
// Two defenses against actively malicious servers are provided: the
// NIZK variant (every shuffle and re-encryption carries a verifiable
// proof) and the cheaper trap variant (each user plants a committed
// trap message; tampering trips a trap with probability ½ per removed
// message and the trustees then destroy the round's decryption key).
//
// The package runs complete deployments in-process with real
// cryptography; cmd/atomd serves the same protocol over TCP, and
// cmd/atomsim regenerates the paper's evaluation tables and figures.
//
// Basic usage — the Round API. A Round is a handle on one batch:
// Submit is safe for concurrent use, Mix honors the context's
// cancellation and deadline, and a new round can open and ingest while
// an earlier one mixes (the paper's §4.7 pipelined organization):
//
//	net, _ := atom.NewNetwork(atom.Config{
//		Servers: 12, Groups: 4, GroupSize: 3,
//		MessageSize: 32, Variant: atom.Trap,
//	})
//	round, _ := net.OpenRound(ctx)
//	for u := 0; u < 16; u++ {
//		_ = round.Submit(u, []byte("hello")) // concurrency-safe
//	}
//	result, err := round.Mix(ctx)
//	// result.Messages holds the anonymized batch;
//	// result.Stats the per-iteration latencies.
//
// Failures are classified by a typed taxonomy — errors.Is(err,
// atom.ErrTrapTripped), atom.ErrProofRejected, atom.ErrRoundAborted,
// atom.ErrBadSubmission, … — and an Observer installed with
// Network.SetObserver receives per-iteration and per-round
// statistics.
package atom

import (
	"crypto/sha3"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"atom/internal/beacon"
	"atom/internal/dvss"
	"atom/internal/protocol"
)

// Variant selects Atom's defense against actively malicious servers.
type Variant int

const (
	// NIZK is the verifiable-shuffle variant (paper §4.3): proactive
	// detection at ~4× the trap variant's computational cost.
	NIZK Variant = iota
	// Trap is the trap-message variant (paper §4.4): cheaper, with the
	// slightly weaker guarantee that removing κ honest messages succeeds
	// only with probability 2^−κ and never deanonymizes anyone.
	Trap
)

func (v Variant) internal() protocol.Variant {
	if v == Trap {
		return protocol.VariantTrap
	}
	return protocol.VariantNIZK
}

// Config describes an Atom deployment — the one set of parameters every
// server and client of the deployment agrees on (paper §2–§4.1). It is
// also the operator's group-config file: LoadConfig reads it from JSON
// under the tags below, and Hash is the digest every party of one
// deployment compares before joining.
type Config struct {
	// Servers is the total server roster size N.
	Servers int `json:"servers"`
	// Groups is G, the number of anytrust groups (one per vertex and
	// layer of the permutation network).
	Groups int `json:"groups"`
	// GroupSize is k, the servers per group. Use RequiredGroupSize to
	// derive it from the adversarial fraction.
	GroupSize int `json:"group_size"`
	// HonestServers is h: the deployment tolerates h−1 benign failures
	// per group. Zero means 1 (plain anytrust).
	HonestServers int `json:"honest"`
	// MessageSize is the fixed plaintext size; submissions are padded.
	MessageSize int `json:"message_size"`
	// Variant selects the active-attack defense.
	Variant Variant `json:"variant"`
	// Iterations is T, the number of mixing iterations (default 10).
	Iterations int `json:"iterations"`
	// Topology is "square" (default) or "butterfly".
	Topology string `json:"topology"`
	// MixWorkers is the parallel mixing engine's per-group worker
	// count (paper Figure 7: a mixing iteration scales near-linearly
	// with cores). Every group fans its per-message cryptography —
	// shuffle rerandomization, re-encryption, proof generation and
	// verification — over a bounded pool of this size. Zero or
	// negative selects the automatic policy: the machine's CPUs
	// divided evenly among the in-process groups.
	MixWorkers int `json:"workers,omitempty"`
	// Buddies is the number of buddy groups escrowing each group's key
	// shares for crash recovery (0 disables escrow).
	Buddies int `json:"buddies,omitempty"`
	// Seed seeds the public randomness beacon (group formation);
	// deployments must agree on it.
	Seed Seed `json:"seed,omitempty"`
	// Coordinator is the coordinator's listen address (recorded and
	// hashed; nothing dials it).
	Coordinator string `json:"coordinator,omitempty"`
	// Members lists pre-started member hosts (atomd -member), one per
	// group member, group-major: group 0's k members first. Empty
	// mixes in-process; otherwise it is G·k long.
	Members []string `json:"members,omitempty"`
}

// Seed is the beacon seed's bytes; in a config file it is a plain JSON
// string.
type Seed []byte

// MarshalText encodes the seed as its raw bytes.
func (s Seed) MarshalText() ([]byte, error) { return s, nil }

// UnmarshalText copies the raw bytes of a config file's seed string.
func (s *Seed) UnmarshalText(b []byte) error {
	*s = append(Seed(nil), b...)
	return nil
}

// MarshalText encodes the variant as "trap" or "nizk" (any value but
// Trap runs the NIZK variant).
func (v Variant) MarshalText() ([]byte, error) {
	if v == Trap {
		return []byte("trap"), nil
	}
	return []byte("nizk"), nil
}

// UnmarshalText parses "nizk" or "trap".
func (v *Variant) UnmarshalText(b []byte) error {
	switch string(b) {
	case "nizk":
		*v = NIZK
	case "trap":
		*v = Trap
	default:
		return fmt.Errorf("variant must be nizk or trap (got %q)", b)
	}
	return nil
}

// LoadConfig reads a group-config file: the JSON form of Config.
// Trailing data, unknown keys, an unknown variant, and a members list
// that is neither empty nor G·k non-empty addresses are rejected, so a
// typo'd knob cannot silently split two servers' views of the
// deployment; everything else is checked where the deployment is built.
func LoadConfig(path string) (Config, error) {
	var c Config
	f, err := os.Open(path)
	if err != nil {
		return c, fmt.Errorf("atom: group config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("atom: group config %s: %w", path, err)
	}
	if dec.More() {
		return c, fmt.Errorf("atom: group config %s: trailing data after the config object", path)
	}
	if n := len(c.Members); n > 0 && n != c.Groups*c.GroupSize {
		return c, fmt.Errorf("atom: group config %s: %d members, want groups×group_size = %d×%d = %d",
			path, n, c.Groups, c.GroupSize, c.Groups*c.GroupSize)
	}
	for i, addr := range c.Members {
		if addr == "" {
			return c, fmt.Errorf("atom: group config %s: member address %d is empty", path, i)
		}
	}
	return c, nil
}

// Hash returns the SHA3-256 digest of the config's canonical encoding
// (compact JSON, keys in declaration order): two files that parse to
// the same deployment hash identically whatever their key order or
// whitespace. Coordinator and members compare it before joining.
func (c Config) Hash() []byte {
	b, _ := json.Marshal(c) // ints, strings and text marshalers cannot fail
	sum := sha3.Sum256(b)
	return sum[:]
}

func (c Config) internal() protocol.Config {
	return protocol.Config{
		NumServers:  c.Servers,
		NumGroups:   c.Groups,
		GroupSize:   c.GroupSize,
		HonestMin:   c.HonestServers,
		MessageSize: c.MessageSize,
		Variant:     c.Variant.internal(),
		Iterations:  c.Iterations,
		Topology:    c.Topology,
		BuddyCount:  c.Buddies,
		Mix:         protocol.MixConfig{Workers: c.MixWorkers},
		Seed:        c.Seed,
	}
}

// Network is a complete Atom deployment: groups with threshold keys,
// the permutation-network wiring, and (in the trap variant) the
// trustees. Rounds are opened against it with OpenRound, or sealed and
// mixed back to back by the continuous Service that Serve starts.
type Network struct {
	d      *protocol.Deployment
	client *protocol.Client
	obs    atomic.Value // *observerBox

	// Trust-complete setup state (NewNetworkDKG / RestoreTrust): the
	// verifiable randomness chain, the beacon committee's threshold
	// keys, and the ceremony window resharing epochs reuse. All nil/zero
	// on trusted-dealer networks.
	chain      *beacon.Chain
	beaconKeys []*dvss.GroupKey
	dkgWindow  time.Duration
}

// NewNetwork forms groups from the beacon, runs distributed key
// generation in every group, and prepares the network for rounds.
func NewNetwork(cfg Config) (*Network, error) {
	icfg := cfg.internal()
	d, err := protocol.NewDeployment(icfg)
	if err != nil {
		return nil, err
	}
	valid := d.Config()
	client, err := protocol.NewClient(&valid)
	if err != nil {
		return nil, err
	}
	return &Network{d: d, client: client}, nil
}

// MarshalState serializes the network's durable key material — group
// rosters, threshold keys with their Feldman commitments, buddy
// escrows and the round sequencer — for a persistence layer (typically
// internal/store) to journal. RestoreNetwork is the inverse.
func (n *Network) MarshalState() []byte { return n.d.MarshalState() }

// RestoreNetwork rebuilds a network from persisted state instead of
// running a fresh key generation: the group keys come back exactly as
// journaled, so submissions encrypted before a crash stay decryptable
// after the restart. lastRound is the highest round id the caller's
// journal has seen (store.State.MaxRound); the round sequencer resumes
// past it. Damaged state fails with ErrStateCorrupt.
func RestoreNetwork(cfg Config, state []byte, lastRound uint64) (*Network, error) {
	d, err := protocol.RestoreDeployment(cfg.internal(), state, lastRound)
	if err != nil {
		return nil, err
	}
	valid := d.Config()
	client, err := protocol.NewClient(&valid)
	if err != nil {
		return nil, err
	}
	return &Network{d: d, client: client}, nil
}

// Groups returns G, the number of groups per layer.
func (n *Network) Groups() int { return n.d.NumGroups() }

// Deployment exposes the network's protocol-layer deployment — the
// advanced surface for wiring alternative mixing engines (e.g. an
// internal/distributed.Cluster, which a continuous Service then drives
// through ServeOptions.Mixer). Most callers never need it.
func (n *Network) Deployment() *protocol.Deployment { return n.d }

// Result is the outcome of one anonymous broadcast round.
type Result struct {
	// Messages holds the anonymized plaintexts in canonical (sorted)
	// order; the mixing has destroyed any correspondence to submission
	// order.
	Messages [][]byte
	// Stats reports the round's per-iteration latencies and work
	// totals.
	Stats RoundStats
}

// EntryKey returns the wire encoding of group gid's public key, for
// remote clients building submissions with Client.
func (n *Network) EntryKey(gid int) ([]byte, error) {
	pk, err := n.d.GroupPK(gid)
	if err != nil {
		return nil, err
	}
	return pk.Bytes(), nil
}

// FailServer simulates a crash of the given server everywhere it
// serves; it returns the affected group ids.
func (n *Network) FailServer(server int) []int { return n.d.FailServer(server) }

// FailGroupMember crashes one member position of one group.
func (n *Network) FailGroupMember(gid, pos int) error { return n.d.FailGroupMember(gid, pos) }

// NeedsRecovery reports whether a group has lost more members than its
// h−1 budget and requires buddy-group recovery.
func (n *Network) NeedsRecovery(gid int) (bool, error) { return n.d.GroupNeedsRecovery(gid) }

// NumIterations returns T, the number of mixing iterations per round.
func (n *Network) NumIterations() int { return n.d.Config().Iterations }

// Recover rebuilds a group's failed positions from buddy-group share
// escrow, installing the given replacement servers.
func (n *Network) Recover(gid int, replacements []int) error {
	return n.d.RecoverGroup(gid, replacements)
}

// SwitchVariant changes the active-attack defense for subsequent rounds
// — the paper's §4.6 escalation path from traps to NIZKs under a
// persistent denial-of-service attack. Clients must be rebuilt with the
// new variant.
func (n *Network) SwitchVariant(v Variant) error {
	n.d.SwitchVariant(v.internal())
	cfg := n.d.Config()
	client, err := protocol.NewClient(&cfg)
	if err != nil {
		return err
	}
	n.client = client
	return nil
}
