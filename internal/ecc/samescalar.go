package ecc

// Same-scalar batch multiplication: k·P_i for one scalar k and many
// points P_i. This is the online shape of the re-encryption chains'
// peel step (C − Y^sk strips a member's share from every slot with the
// member's one fixed secret), of ciphertext decryption sweeps, and of
// the trap finale — a variable-base multiplication whose *scalar* is
// shared even though no base repeats.
//
// Sharing the scalar buys two things over per-point wNAF:
//
//   - the digit schedule (the scalar's wNAF) is computed once and every
//     point walks it in lockstep, so the group arithmetic runs through
//     the batchLanes affine accumulator — one shared field inversion
//     per digit step, and per point 5 multiplications and 2 squarings
//     for a doubling step (5M + 1S for an addition), against 3M + 5S
//     and 7M + 4S for the Jacobian doubling and mixed addition; and
//   - the lanes are mutually independent, so the multiplier pipeline
//     runs at throughput. A single Jacobian double-and-add chain is a
//     serial dependency on the field multiplier's *latency*, which is
//     what makes the scalar loop in Mul expensive in practice.

// sameScalarMin is the batch size below which the shared-inversion
// machinery costs more than it saves (each digit step pays one field
// inversion, about 200 multiplications' time, amortized across the
// lanes). Callers with several small batches under one scalar — a
// server's re-encryption toward β destinations — concatenate them into
// one call so the walk pays that inversion once per step.
const sameScalarMin = 64

// sameScalarBlock bounds how many lanes run in lockstep: the per-block
// odd-multiple tables (16 affine points per lane) stay cache-resident
// instead of streaming a whole 10⁴-slot batch through every digit step.
const sameScalarBlock = 2048

// MulSameScalarBatch returns k·ps[i] for every i. Equivalent to calling
// ps[i].Mul(k) per point; identity inputs and the zero scalar map to
// identity outputs.
func MulSameScalarBatch(k *Scalar, ps []*Point) []*Point {
	n := len(ps)
	out := make([]*Point, n)
	if n == 0 {
		return out
	}
	if k.IsZero() {
		slab := make([]Point, n)
		for i := range out {
			out[i] = &slab[i]
		}
		return out
	}
	if n < sameScalarMin {
		for i, p := range ps {
			out[i] = p.Mul(k)
		}
		return out
	}
	naf := wnaf5(k.canonical())
	for lo := 0; lo < n; lo += sameScalarBlock {
		hi := lo + sameScalarBlock
		if hi > n {
			hi = n
		}
		mulSameScalarBlock(&naf, ps[lo:hi], out[lo:hi])
	}
	return out
}

// mulSameScalarBlock runs one lockstep block of the shared-wNAF
// double-and-add over the batchLanes accumulator.
func mulSameScalarBlock(naf *[257]int8, ps []*Point, out []*Point) {
	aff, isID := normalizeBatch(ps)
	// Compact to the live lanes; identity inputs resolve immediately.
	idx := make([]int, 0, len(ps))
	slab := make([]Point, len(ps))
	for i := range ps {
		out[i] = &slab[i]
		if !isID[i] {
			idx = append(idx, i)
		}
	}
	m := len(idx)
	if m == 0 {
		return
	}

	// Odd-multiple tables tab[j][i] = (2j+1)·P_i, built with batched
	// affine steps: one doubling round for 2P, then fifteen addition
	// rounds chaining +2P. Exceptional cases (equal or opposite x) are
	// impossible among the small odd multiples of a prime-order point,
	// and stage() handles them anyway.
	lanes := newBatchLanes(m)
	tabSlab := make([]affinePoint, 16*m)
	var tab [16][]affinePoint
	for j := range tab {
		tab[j] = tabSlab[j*m : (j+1)*m]
	}
	for i := 0; i < m; i++ {
		tab[0][i] = aff[idx[i]]
		lanes.x[i] = aff[idx[i]].x
		lanes.y[i] = aff[idx[i]].y
		lanes.state[i] = laneLive
		lanes.stageDbl(i)
	}
	lanes.flush()
	twoP := make([]affinePoint, m)
	for i := 0; i < m; i++ {
		twoP[i].x = lanes.x[i]
		twoP[i].y = lanes.y[i]
		lanes.x[i] = tab[0][i].x
		lanes.y[i] = tab[0][i].y
	}
	for j := 1; j < 16; j++ {
		for i := 0; i < m; i++ {
			lanes.stage(i, &twoP[i])
		}
		lanes.flush()
		for i := 0; i < m; i++ {
			tab[j][i].x = lanes.x[i]
			tab[j][i].y = lanes.y[i]
		}
	}

	// Shared-digit double-and-add, top digit down. Every lane follows
	// the same schedule; intermediate identities (a partial sum landing
	// on the point at infinity) park the lane in laneIdentity, which
	// stageDbl skips and stage restarts correctly.
	neg := make([]affinePoint, m)
	for i := 0; i < m; i++ {
		lanes.state[i] = laneEmpty
	}
	started := false
	for bit := 256; bit >= 0; bit-- {
		d := naf[bit]
		if !started {
			if d == 0 {
				continue
			}
			ent := tab[(d-1)/2]
			if d < 0 {
				ent = tab[(-d-1)/2]
			}
			for i := 0; i < m; i++ {
				lanes.x[i] = ent[i].x
				lanes.y[i] = ent[i].y
				if d < 0 {
					feNeg(&lanes.y[i], &lanes.y[i])
				}
				lanes.state[i] = laneLive
			}
			started = true
			continue
		}
		for i := 0; i < m; i++ {
			lanes.stageDbl(i)
		}
		lanes.flush()
		if d == 0 {
			continue
		}
		if d > 0 {
			ent := tab[(d-1)/2]
			for i := 0; i < m; i++ {
				lanes.stage(i, &ent[i])
			}
		} else {
			ent := tab[(-d-1)/2]
			for i := 0; i < m; i++ {
				neg[i].x = ent[i].x
				feNeg(&neg[i].y, &ent[i].y)
				lanes.stage(i, &neg[i])
			}
		}
		lanes.flush()
	}
	for i := 0; i < m; i++ {
		if lanes.state[i] != laneLive {
			continue // k·P hit the identity (only via an intermediate cancel)
		}
		p := out[idx[i]]
		p.x = lanes.x[i]
		p.y = lanes.y[i]
		p.z = feOne
	}
}
