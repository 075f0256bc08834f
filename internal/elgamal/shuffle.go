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
	return reencOne(sk, nextPK, batch, rnd, nil, nil)
}

// ReEncBatchPar is ReEncBatch with the point arithmetic fanned over the
// pool's workers (nil pool = serial). As with ShuffleBatchPar, all
// randomness is drawn serially up front.
func ReEncBatchPar(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool) ([]Vector, [][]*ecc.Scalar, error) {
	return reencOne(sk, nextPK, batch, rnd, pool, nil)
}

// ReEncBatchPads is ReEncBatchPar drawing the re-encryption randomness
// from precomputed pads for nextPK: a padded slot's R' = g^k + R and
// X'^k term come from the bank, leaving only the peel C − Y^sk (a
// variable-base multiplication no precomputation can cover) online.
// Slots past the bank fall back to the fresh path mid-batch; the exit
// layer (nextPK = nil) adds no randomness and never consumes pads.
func ReEncBatchPads(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool, pads *PadPool) ([]Vector, [][]*ecc.Scalar, error) {
	return reencOne(sk, nextPK, batch, rnd, pool, pads)
}

// ReEncBatches is one server's whole re-encryption step: batch i peeled
// with sk and re-encrypted toward nextPKs[i] (nil = the exit layer's
// pure decryption). Every slot of every batch shares one same-scalar
// peel walk, so the walk's per-step field inversion is paid once per
// step, not once per destination; the re-encryption combs stay per
// destination key. Randomness is drawn serially, batch by batch in
// order, so the stream is consumed exactly as successive ReEncBatchPar
// calls would consume it.
func ReEncBatches(sk *ecc.Scalar, nextPKs []*ecc.Point, batches [][]Vector, rnd io.Reader, pool *parallel.Pool) ([][]Vector, [][][]*ecc.Scalar, error) {
	if len(nextPKs) != len(batches) {
		return nil, nil, fmt.Errorf("elgamal: reenc: %d batches for %d keys", len(batches), len(nextPKs))
	}
	return reencBatches(sk, nextPKs, batches, rnd, pool, nil)
}

// reencOne is the one-batch case of reencBatches.
func reencOne(sk *ecc.Scalar, nextPK *ecc.Point, batch []Vector, rnd io.Reader, pool *parallel.Pool, pads *PadPool) ([]Vector, [][]*ecc.Scalar, error) {
	outs, rands, err := reencBatches(sk, []*ecc.Point{nextPK}, [][]Vector{batch}, rnd, pool, pads)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], rands[0], nil
}

// reencSeg is one batch's run of flattened slots: [lo, hi), of which
// [lo, padHi) draw their randomness from the pad bank.
type reencSeg struct {
	lo, padHi, hi int
	nextPK        *ecc.Point // nil: exit layer
	pads          []Pad
}

// pieces calls f for every segment's overlap with the slot range
// [lo, hi).
func pieces(segs []reencSeg, lo, hi int, f func(seg *reencSeg, a, b int)) {
	for i := range segs {
		seg := &segs[i]
		a, b := max(seg.lo, lo), min(seg.hi, hi)
		if a < b {
			f(seg, a, b)
		}
	}
}

func reencBatches(sk *ecc.Scalar, nextPKs []*ecc.Point, batches [][]Vector, rnd io.Reader, pool *parallel.Pool, pads *PadPool) ([][]Vector, [][][]*ecc.Scalar, error) {
	// Flatten as in shuffleBatch, across every batch. The peel step
	// C − Y^sk is a variable-base multiplication (every Y differs) whose
	// *scalar* is shared — the server's one secret — so all slots run
	// through one same-scalar lockstep walk; the re-encryption halves —
	// g^r + R into the generator comb, nextPK^r + C into each nextPK's
	// cached per-key comb — batch the same way the shuffle does.
	nb := len(batches)
	segs := make([]reencSeg, nb)
	vecOff := make([]int, nb+1) // batch b's vectors are flat vectors [vecOff[b], vecOff[b+1])
	for b, batch := range batches {
		vecOff[b+1] = vecOff[b] + len(batch)
	}
	offs := make([]int, vecOff[nb]+1) // flat vector v's slots are [offs[v], offs[v+1])
	for b, batch := range batches {
		for i, vec := range batch {
			v := vecOff[b] + i
			offs[v+1] = offs[v] + len(vec)
		}
	}
	total := offs[len(offs)-1]
	flatK := make([]*ecc.Scalar, total)
	var zeros []ecc.Scalar
	for b := range batches {
		seg := &segs[b]
		seg.lo, seg.hi = offs[vecOff[b]], offs[vecOff[b+1]]
		seg.nextPK = nextPKs[b]
		if seg.nextPK == nil {
			// Exit layer: pure decryption adds no randomness. The zero
			// value of ecc.Scalar is the scalar 0, so one slab covers
			// every exit slot.
			if zeros == nil {
				zeros = make([]ecc.Scalar, total)
			}
			for t := seg.lo; t < seg.hi; t++ {
				flatK[t] = &zeros[t]
			}
			seg.padHi = seg.lo
			continue
		}
		if pads != nil && pads.base.Equal(seg.nextPK) {
			seg.pads = pads.take(seg.hi - seg.lo)
		}
		seg.padHi = seg.lo + len(seg.pads)
		fresh, err := ecc.RandomScalars(rnd, seg.hi-seg.padHi)
		if err != nil {
			return nil, nil, fmt.Errorf("elgamal: reenc batch: %w", err)
		}
		for t := range seg.pads {
			flatK[seg.lo+t] = seg.pads[t].K
		}
		copy(flatK[seg.padHi:seg.hi], fresh)
	}
	ys := make([]*ecc.Point, total)   // peel base per slot (Y, or first-touch R)
	rrs := make([]*ecc.Point, total)  // carried R per slot
	srcC := make([]*ecc.Point, total) // input C per slot
	peel := make([]*ecc.Point, total) // C − Y^sk
	for b, batch := range batches {
		for i, vec := range batch {
			for j, ct := range vec {
				t := offs[vecOff[b]+i] + j
				// First touch within a group: the accumulated randomness
				// moves into the Y slot and R resets to the identity.
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
		fresh := 0
		pieces(segs, lo, hi, func(seg *reencSeg, a, b int) {
			if seg.nextPK == nil {
				// Exit layer: R carries through untouched, and the
				// plaintext leaves affine — one shared inversion here
				// instead of one per point wherever it is read.
				for t := a; t < b; t++ {
					outR[t] = rrs[t].Clone()
				}
				ecc.NormalizeBatch(peel[a:b])
				return
			}
			// Padded slots: R' = g^k + R with g^k from the bank.
			for t := a; t < min(b, seg.padHi); t++ {
				outR[t] = seg.pads[t-seg.lo].GK.Add(rrs[t])
			}
			fresh += b - max(a, seg.padHi)
		})
		// Fresh slots: R' = g^k + R. The generator comb is the same for
		// every destination, so a chunk of only fresh slots (the mixing
		// path) shares one evaluation across its destinations.
		if fresh == hi-lo {
			copy(outR[lo:hi], ecc.BaseMulAddBatch(rrs[lo:hi], flatK[lo:hi]))
		} else if fresh > 0 {
			pieces(segs, lo, hi, func(seg *reencSeg, a, b int) {
				if a = max(a, seg.padHi); seg.nextPK != nil && a < b {
					copy(outR[a:b], ecc.BaseMulAddBatch(rrs[a:b], flatK[a:b]))
				}
			})
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := pool.Each(chunks, func(c int) error {
		lo, hi := c*total/chunks, (c+1)*total/chunks
		pieces(segs, lo, hi, func(seg *reencSeg, a, b int) {
			if seg.nextPK == nil {
				return
			}
			// Padded slots: C' = peel + X'^k with X'^k from the bank.
			for t := a; t < min(b, seg.padHi); t++ {
				peel[t] = peel[t].Add(seg.pads[t-seg.lo].BK)
			}
			if a = max(a, seg.padHi); a < b {
				copy(peel[a:b], ecc.MulAddBatch(seg.nextPK, peel[a:b], flatK[a:b]))
			}
		})
		return nil
	}); err != nil {
		return nil, nil, err
	}
	outs := make([][]Vector, nb)
	rands := make([][][]*ecc.Scalar, nb)
	cts := make([]Ciphertext, total)
	ptrs := make(Vector, total)
	for t := range ptrs {
		ct := &cts[t]
		ct.R = outR[t]
		ct.C = peel[t]
		ct.Y = ys[t].Clone()
		ptrs[t] = ct
	}
	for b, batch := range batches {
		outs[b] = make([]Vector, len(batch))
		rands[b] = make([][]*ecc.Scalar, len(batch))
		for i := range batch {
			lo, hi := offs[vecOff[b]+i], offs[vecOff[b]+i+1]
			outs[b][i] = ptrs[lo:hi:hi]
			rands[b][i] = flatK[lo:hi:hi]
		}
	}
	return outs, rands, nil
}
