package protocol

import (
	"context"
	"crypto/rand"
	"fmt"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/groupmgr"
	"atom/internal/topology"
)

// BenchHarness is a single-group fixture for the real-cryptography
// microbenchmarks behind Figures 5–7: one anytrust group holding a batch
// of onion ciphertexts, mixing one layer that re-encrypts toward a
// successor. Each iteration seats the group's members over the
// in-process link and runs the deployment's Seat state machine, pools
// included — there is no bench-only crypto path, so benchmark numbers
// reflect the protocol as shipped at any worker count.
type BenchHarness struct {
	roster  *GroupRoster
	topo    topology.Topology
	variant Variant
	batch   []elgamal.Vector
}

// NewBenchHarness creates a group of groupSize servers holding
// numMessages ciphertexts of numPoints points each.
func NewBenchHarness(groupSize, numMessages, numPoints int, variant Variant) (*BenchHarness, error) {
	members := make([]int, groupSize)
	for i := range members {
		members[i] = i
	}
	gs, err := newGroupState(&groupmgr.Group{ID: 0, Members: members}, groupSize, rand.Reader)
	if err != nil {
		return nil, err
	}
	roster, err := gs.roster()
	if err != nil {
		return nil, err
	}
	// Two layers, of which the fixture mixes the first: a mid-network
	// layer, so the chain re-encrypts instead of decrypting to ⊥.
	topo, err := topology.NewSquare(1, 2)
	if err != nil {
		return nil, err
	}
	h := &BenchHarness{roster: roster, topo: topo, variant: variant}
	h.batch = make([]elgamal.Vector, numMessages)
	for i := range h.batch {
		payload := []byte(fmt.Sprintf("bench message %06d", i))
		pts, err := ecc.EmbedMessage(payload, numPoints)
		if err != nil {
			return nil, err
		}
		vec, _, err := elgamal.EncryptVector(gs.PK, pts, rand.Reader)
		if err != nil {
			return nil, err
		}
		h.batch[i] = vec
	}
	return h, nil
}

// RunIteration executes one full mixing iteration (shuffle by every
// member, divide, decrypt-and-reencrypt by every member) exactly as the
// deployment does, under the given parallelism knob — the same
// MixConfig a Deployment threads into every round's iterations.
// MixConfig{Workers: 1} measures the serial baseline; the zero value
// uses the automatic policy (all CPUs for this single group).
func (h *BenchHarness) RunIteration(mix MixConfig) error {
	workers := mix.effectiveWorkers(1)
	n, err := newSeatNet([]*GroupRoster{h.roster}, h.topo, 1, h.variant, workers)
	if err != nil {
		return err
	}
	stop := n.start(context.Background())
	defer stop()
	n.inject(0, workers, [][]elgamal.Vector{h.batch})
	select {
	case <-n.reports:
		return nil
	case err := <-n.errs:
		return err
	}
}

// NumMessages returns the batch size (handy for benchmark reporting).
func (h *BenchHarness) NumMessages() int { return len(h.batch) }
