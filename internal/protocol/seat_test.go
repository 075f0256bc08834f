package protocol

import (
	"testing"

	"atom/internal/ecc"
	"atom/internal/topology"
)

// TestSeatKeepsCancelAheadOfNewestRound: a cancel can reach a seat for
// an attempt newer than any round it has observed — say round 7's first
// attempt is canceled while another pipelined round's restart (round 6,
// attempt 1) is the newest traffic. Pruning must compare only rounds
// behind the newest: a wrapped-around difference would forget the cancel
// and let the canceled attempt's in-flight steps be mixed as if live.
// Rounds far behind the newest are still pruned.
func TestSeatKeepsCancelAheadOfNewestRound(t *testing.T) {
	topo, err := topology.NewSquare(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := ecc.Generator()
	s, err := NewSeat(SeatConfig{
		Indices: []int{1}, Secret: ecc.NewScalar(1), EffPubs: []*ecc.Point{g},
		GroupPKs: []*ecc.Point{g}, Topo: topo,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(7 << 8)
	s.observe(6<<8 | 1)
	if !s.Canceled(7 << 8) {
		t.Fatal("observing round 6 attempt 1 pruned the cancel of round 7 attempt 0")
	}
	s.observe(7<<8 + pipelineWindow<<8 + 1<<8)
	if s.Canceled(7 << 8) {
		t.Fatal("a cancel beyond the pipelining window was not pruned")
	}
}
