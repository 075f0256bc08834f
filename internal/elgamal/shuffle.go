package elgamal

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"atom/internal/ecc"
	"atom/internal/parallel"
)

// RandomPerm returns a uniformly random permutation of [0, n) using
// rejection-sampled randomness from rnd (crypto/rand if nil). It is a
// cryptographic Fisher–Yates: the permutation quality is what the final
// mix-net permutation's indistinguishability rests on, so math/rand is
// not acceptable here.
func RandomPerm(n int, rnd io.Reader) ([]int, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		jBig, err := rand.Int(rnd, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("elgamal: random permutation: %w", err)
		}
		j := int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}

// ShuffleBatch implements the Shuffle operation of §2.3 on a batch of
// ciphertext vectors: it rerandomizes every component under pk and
// permutes the batch with a fresh random permutation. It returns the
// shuffled batch along with the permutation and per-component randomness
// (out[i] = Rerandomize(in[perm[i]], rands[i][j])), which the caller
// feeds to nizk.ProveShuffle in the NIZK variant and then discards.
func ShuffleBatch(pk *ecc.Point, in []Vector, rnd io.Reader) (out []Vector, perm []int, rands [][]*ecc.Scalar, err error) {
	return shuffleBatch(pk, in, rnd, nil)
}

// ShuffleBatchPar is ShuffleBatch with the per-message point arithmetic
// fanned over the pool's workers (nil pool = serial, identical to
// ShuffleBatch). All randomness — the permutation and every
// rerandomizer — is drawn from rnd serially up front, so rnd need not
// be safe for concurrent use and the batch consumes the randomness
// stream in the same order at every worker count.
func ShuffleBatchPar(pk *ecc.Point, in []Vector, rnd io.Reader, pool *parallel.Pool) (out []Vector, perm []int, rands [][]*ecc.Scalar, err error) {
	return shuffleBatch(pk, in, rnd, pool)
}

func shuffleBatch(pk *ecc.Point, in []Vector, rnd io.Reader, pool *parallel.Pool) (out []Vector, perm []int, rands [][]*ecc.Scalar, err error) {
	n := len(in)
	perm, err = RandomPerm(n, rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	// Flatten every (vector, component) slot so the rerandomization runs
	// as two fused batch comb evaluations per worker chunk — R' =
	// g^r + R seeded into the generator comb, C' = pk^r + C into pk's
	// cached per-key comb — instead of four generic exponentiations per
	// component. Each chunk shares one field inversion per comb step, so
	// the whole shuffle allocates O(1) per component.
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + len(in[perm[i]])
	}
	total := offs[n]
	seedR := make([]*ecc.Point, total)
	seedC := make([]*ecc.Point, total)
	for i := 0; i < n; i++ {
		src := in[perm[i]]
		for j, ct := range src {
			if ct.Y != nil {
				return nil, nil, nil, fmt.Errorf("%w: shuffle input (%d,%d)", ErrY, perm[i], j)
			}
			seedR[offs[i]+j] = ct.R
			seedC[offs[i]+j] = ct.C
		}
	}
	// One slab-allocated batch of scalars; rands sub-slices it, so the
	// per-vector views cost no extra allocations.
	flatK, err := ecc.RandomScalars(rnd, total)
	if err != nil {
		return nil, nil, nil, err
	}
	rands = make([][]*ecc.Scalar, n)
	for i := 0; i < n; i++ {
		rands[i] = flatK[offs[i]:offs[i+1]:offs[i+1]]
	}
	outR := make([]*ecc.Point, total)
	outC := make([]*ecc.Point, total)
	chunks := pool.Workers()
	if chunks > (total+255)/256 {
		chunks = (total + 255) / 256
	}
	if chunks < 1 {
		chunks = 1
	}
	if err := pool.Each(chunks, func(c int) error {
		lo, hi := c*total/chunks, (c+1)*total/chunks
		if lo == hi {
			return nil
		}
		copy(outR[lo:hi], ecc.BaseMulAddBatch(seedR[lo:hi], flatK[lo:hi]))
		copy(outC[lo:hi], ecc.MulAddBatch(pk, seedC[lo:hi], flatK[lo:hi]))
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	out = make([]Vector, n)
	cts := make([]Ciphertext, total)
	ptrs := make(Vector, total)
	for t := range ptrs {
		ct := &cts[t]
		ct.R = outR[t]
		ct.C = outC[t]
		ptrs[t] = ct
	}
	for i := 0; i < n; i++ {
		out[i] = ptrs[offs[i]:offs[i+1]:offs[i+1]]
	}
	return out, perm, rands, nil
}

// ReEncBatch applies ReEncVector to every vector of a batch, returning
// the per-vector outputs and randomness.
func ReEncBatch(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader) ([]Vector, [][]*ecc.Scalar, error) {
	return reencBatch(sk, nextPK, batch, rnd, nil, nil)
}

// ReEncBatchPar is ReEncBatch with the point arithmetic fanned over the
// pool's workers (nil pool = serial). As with ShuffleBatchPar, all
// randomness is drawn serially up front.
func ReEncBatchPar(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool) ([]Vector, [][]*ecc.Scalar, error) {
	return reencBatch(sk, nextPK, batch, rnd, pool, nil)
}

// ReEncBatchPads is ReEncBatchPar drawing the re-encryption randomness
// from precomputed pads for nextPK: a padded slot's R' = g^k + R and
// X'^k term come from the bank, leaving only the peel C − Y^sk (a
// variable-base multiplication no precomputation can cover) online.
// Slots past the bank fall back to the fresh path mid-batch; the exit
// layer (nextPK = nil) adds no randomness and never consumes pads.
func ReEncBatchPads(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool, pads *PadPool) ([]Vector, [][]*ecc.Scalar, error) {
	return reencBatch(sk, nextPK, batch, rnd, pool, pads)
}

func reencBatch(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool, pads *PadPool) ([]Vector, [][]*ecc.Scalar, error) {
	if pads != nil && (nextPK == nil || !pads.base.Equal(nextPK)) {
		pads = nil
	}
	// Flatten as in shuffleBatch. The peel step C − Y^sk is a
	// variable-base multiplication (every Y differs) whose *scalar* is
	// shared — the member's one secret — so it runs through the
	// same-scalar lockstep batch; the re-encryption halves — g^r + R into
	// the generator comb, nextPK^r + C into nextPK's cached per-key comb —
	// batch the same way the shuffle does.
	n := len(batch)
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + len(batch[i])
	}
	total := offs[n]
	flatK := make([]*ecc.Scalar, total)
	var taken []Pad
	if nextPK == nil {
		// Exit layer: pure decryption adds no randomness. The zero value
		// of ecc.Scalar is the scalar 0, so one slab covers every slot.
		zeros := make([]ecc.Scalar, total)
		for t := range flatK {
			flatK[t] = &zeros[t]
		}
	} else {
		taken = pads.take(total)
		fresh, err := ecc.RandomScalars(rnd, total-len(taken))
		if err != nil {
			return nil, nil, fmt.Errorf("elgamal: reenc batch: %w", err)
		}
		for t := range taken {
			flatK[t] = taken[t].K
		}
		copy(flatK[len(taken):], fresh)
	}
	m := len(taken)
	rands := make([][]*ecc.Scalar, n)
	ys := make([]*ecc.Point, total)   // peel base per slot (Y, or first-touch R)
	rrs := make([]*ecc.Point, total)  // carried R per slot
	srcC := make([]*ecc.Point, total) // input C per slot
	peel := make([]*ecc.Point, total) // C − Y^sk
	for i := 0; i < n; i++ {
		rands[i] = flatK[offs[i]:offs[i+1]:offs[i+1]]
		for j, ct := range batch[i] {
			t := offs[i] + j
			// First touch within a group: the accumulated randomness moves
			// into the Y slot and R resets to the identity.
			y, rr := ct.Y, ct.R
			if y == nil {
				y = ct.R
				rr = ecc.Identity()
			}
			ys[t] = y
			rrs[t] = rr
			srcC[t] = ct.C
		}
	}
	outR := make([]*ecc.Point, total)
	chunks := pool.Workers()
	if chunks > (total+63)/64 {
		chunks = (total + 63) / 64
	}
	if chunks < 1 {
		chunks = 1
	}
	if err := pool.Each(chunks, func(c int) error {
		lo, hi := c*total/chunks, (c+1)*total/chunks
		if lo == hi {
			return nil
		}
		for j, sky := range ecc.MulSameScalarBatch(sk, ys[lo:hi]) {
			peel[lo+j] = srcC[lo+j].Sub(sky)
		}
		if nextPK == nil {
			// Exit layer: pure decryption, R carries through untouched.
			for j := lo; j < hi; j++ {
				outR[j] = rrs[j].Clone()
			}
			return nil
		}
		// Padded slots: R' = g^k + R with g^k from the bank.
		padHi := hi
		if padHi > m {
			padHi = m
		}
		for t := lo; t < padHi; t++ {
			outR[t] = taken[t].GK.Add(rrs[t])
		}
		if lo < m {
			lo = m
		}
		if lo < hi {
			copy(outR[lo:hi], ecc.BaseMulAddBatch(rrs[lo:hi], flatK[lo:hi]))
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if nextPK != nil {
		if err := pool.Each(chunks, func(c int) error {
			lo, hi := c*total/chunks, (c+1)*total/chunks
			if lo == hi {
				return nil
			}
			// Padded slots: C' = peel + X'^k with X'^k from the bank.
			padHi := hi
			if padHi > m {
				padHi = m
			}
			for t := lo; t < padHi; t++ {
				peel[t] = peel[t].Add(taken[t].BK)
			}
			if lo < m {
				lo = m
			}
			if lo < hi {
				copy(peel[lo:hi], ecc.MulAddBatch(nextPK, peel[lo:hi], flatK[lo:hi]))
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	out := make([]Vector, n)
	cts := make([]Ciphertext, total)
	ptrs := make(Vector, total)
	for t := range ptrs {
		ct := &cts[t]
		ct.R = outR[t]
		ct.C = peel[t]
		ct.Y = ys[t].Clone()
		ptrs[t] = ct
	}
	for i := 0; i < n; i++ {
		out[i] = ptrs[offs[i]:offs[i+1]:offs[i+1]]
	}
	return out, rands, nil
}
