package elgamal

import (
	"fmt"
	"io"
	"sync"

	"atom/internal/ecc"
	"atom/internal/parallel"
)

// Pad is one precomputed re-encryption unit for a fixed mixing base:
// a scalar k with GK = g^k and BK = base^k. Adding GK to a ciphertext's
// R slot and BK to its C slot applies exactly the rerandomization that
// fresh randomness k would — the classic mixnet offline/online split
// that turns two online exponentiations into two point additions.
type Pad struct {
	K  *ecc.Scalar
	GK *ecc.Point // g^k
	BK *ecc.Point // base^k
}

// PadPool banks precomputed pads for one mixing base — a group public
// key. Fill runs offline on the parallel pool through the fused
// fixed-base comb pipelines; ReEncBatchPads consumes serially, so its
// output stays deterministic at any worker count. Exhaustion is not an
// error — slots past the bank fall back to fresh randomness.
//
// No mixing path uses the bank: filling it costs what the online
// exponentiations it replaces cost. It is kept as the measured
// primitive behind the benchmark's elgamal.reenc_pads / pad_fill
// ledger entries.
type PadPool struct {
	base *ecc.Point

	mu   sync.Mutex
	pads []Pad
}

// NewPadPool creates an empty pool for the given base and warms the
// base's fixed-base comb table, so both offline fills and any online
// fallback go through the fused evaluation.
func NewPadPool(base *ecc.Point) *PadPool {
	ecc.WarmBase(base)
	return &PadPool{base: base.Clone()}
}

// Fill tops the bank up to target pads, drawing scalars from rnd
// serially and fanning the g^k / base^k evaluations over the worker
// pool (nil = serial). Filling past target is a no-op; a canceled pool
// context aborts with the pool's error.
func (p *PadPool) Fill(target int, rnd io.Reader, pool *parallel.Pool) error {
	p.mu.Lock()
	need := target - len(p.pads)
	p.mu.Unlock()
	if need <= 0 {
		return nil
	}
	ks, err := ecc.RandomScalars(rnd, need)
	if err != nil {
		return fmt.Errorf("elgamal: pad fill: %w", err)
	}
	gks := make([]*ecc.Point, need)
	bks := make([]*ecc.Point, need)
	chunks := pool.Workers()
	if chunks > (need+255)/256 {
		chunks = (need + 255) / 256
	}
	if chunks < 1 {
		chunks = 1
	}
	if err := pool.Each(chunks, func(c int) error {
		lo, hi := c*need/chunks, (c+1)*need/chunks
		if lo == hi {
			return nil
		}
		copy(gks[lo:hi], ecc.BaseMulBatch(ks[lo:hi]))
		copy(bks[lo:hi], ecc.MulBatch(p.base, ks[lo:hi]))
		return nil
	}); err != nil {
		return err
	}
	p.mu.Lock()
	for i := 0; i < need; i++ {
		p.pads = append(p.pads, Pad{K: ks[i], GK: gks[i], BK: bks[i]})
	}
	p.mu.Unlock()
	return nil
}

// take removes up to n pads from the bank. It must be called serially
// with respect to the consuming batch (ReEncBatchPads does), so output
// stays deterministic at any worker count.
func (p *PadPool) take(n int) []Pad {
	if p == nil || n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := n
	if m > len(p.pads) {
		m = len(p.pads)
	}
	out := p.pads[:m:m]
	p.pads = p.pads[m:]
	return out
}
