package ecc

// Batch pipelines: Jacobian→affine normalization and the lockstep
// affine accumulator behind the comb evaluators, both built on
// Montgomery's batch-inversion trick so a whole vector shares one
// field inversion. These are what make the shuffle path scale — a
// single inversion (feInv: 255 squarings and 12 multiplications, about
// 200 multiplications' time with the dedicated squaring kernel) costs
// each batched point only 3 multiplications.

// normalizeBatch converts the points to affine with one shared field
// inversion, returning parallel slices: aff[i] is meaningful only when
// isID[i] is false. Points that already have Z = 1 are copied through,
// and a batch of nothing else costs no inversion at all. The points are
// only read.
func normalizeBatch(ps []*Point) (aff []affinePoint, isID []bool) {
	aff = make([]affinePoint, len(ps))
	isID = make([]bool, len(ps))
	for i, p := range ps {
		isID[i] = p.IsIdentity()
		aff[i] = affinePoint{p.x, p.y}
	}
	toAffine(ps, aff)
	return aff, isID
}

// NormalizeBatch rewrites the points in place so every non-identity
// point has Z = 1, sharing a single field inversion across the slice.
// Call it before a stretch of per-point Bytes() calls (marshalling,
// transcript absorption): each Bytes() on a normalized point skips its
// own inversion. It allocates only the prefix products (32 B per point);
// ps must not hold the same *Point twice.
func NormalizeBatch(ps []*Point) { toAffine(ps, nil) }

// toAffine converts every point of ps that is neither the identity nor
// already affine with one field inversion for the whole slice, writing
// the affine coordinates to aff[i] — or, with aff nil, over ps[i]
// itself, setting its Z to 1.
func toAffine(ps []*Point, aff []affinePoint) {
	// prefix[i] is the product of the Z of the Jacobian points before i;
	// allocated on the first one.
	var prefix []fe
	acc := feOne
	for i, p := range ps {
		if p.IsIdentity() || feEqual(&p.z, &feOne) {
			continue
		}
		if prefix == nil {
			prefix = make([]fe, len(ps))
		}
		prefix[i] = acc
		feMul(&acc, &acc, &p.z)
	}
	if prefix == nil {
		return
	}
	var inv fe
	feInv(&inv, &acc)
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		if p.IsIdentity() || feEqual(&p.z, &feOne) {
			continue
		}
		var zinv, zinv2 fe
		feMul(&zinv, &inv, &prefix[i])
		feMul(&inv, &inv, &p.z)
		feSqr(&zinv2, &zinv)
		x, y := &p.x, &p.y
		if aff != nil {
			x, y = &aff[i].x, &aff[i].y
		} else {
			p.z = feOne
		}
		feMul(x, &p.x, &zinv2)
		feMul(&zinv2, &zinv2, &zinv)
		feMul(y, &p.y, &zinv2)
	}
}

// laneState tracks one output accumulator of a batch comb evaluation.
const (
	laneEmpty    uint8 = iota // no point accumulated yet
	laneLive                  // holds an affine point
	laneIdentity              // accumulated to the point at infinity
)

// batchLanes is the lockstep affine accumulator: n lanes, each holding
// at most one affine point, advanced one batched addition step at a
// time. All scratch is allocated once up front, so a full comb
// evaluation allocates nothing per step.
type batchLanes struct {
	x, y  []fe
	state []uint8

	// Per-step scratch. kind[i] says how lane i participates in the
	// current step; denom[i] is its inversion denominator (1 for lanes
	// sitting the step out, so the prefix-product pass is branch-light
	// and unconditional).
	kind  []uint8
	denom []fe
	pref  []fe
	ept   []*affinePoint // staged addend (table entry, never mutated)
}

const (
	stepSkip uint8 = iota // lane does not add this step
	stepAdd               // distinct-x affine addition
	stepDbl               // doubling (addend equals accumulator)
)

func newBatchLanes(n int) *batchLanes {
	return &batchLanes{
		x:     make([]fe, n),
		y:     make([]fe, n),
		state: make([]uint8, n),
		kind:  make([]uint8, n),
		denom: make([]fe, n),
		pref:  make([]fe, n),
		ept:   make([]*affinePoint, n),
	}
}

// stage queues the addition of e into lane i for the current step.
// Cases that need no inversion (first point, inverse pair) resolve
// immediately; the rest record a denominator for the shared inversion.
func (l *batchLanes) stage(i int, e *affinePoint) {
	if l.state[i] != laneLive {
		l.x[i] = e.x
		l.y[i] = e.y
		l.state[i] = laneLive
		l.kind[i] = stepSkip
		l.denom[i] = feOne
		return
	}
	if feEqual(&l.x[i], &e.x) {
		if feEqual(&l.y[i], &e.y) {
			// Doubling: λ = (3x²-3)/(2y); y ≠ 0 on prime-order P-256.
			l.kind[i] = stepDbl
			feAdd(&l.denom[i], &l.y[i], &l.y[i])
			return
		}
		l.state[i] = laneIdentity
		l.kind[i] = stepSkip
		l.denom[i] = feOne
		return
	}
	l.kind[i] = stepAdd
	feSub(&l.denom[i], &e.x, &l.x[i])
	l.ept[i] = e
}

// skip marks lane i as sitting out the current step.
func (l *batchLanes) skip(i int) {
	l.kind[i] = stepSkip
	l.denom[i] = feOne
}

// stageDbl stages lane i to double in place (for lockstep double-and-add
// walks, where every live lane doubles at every digit level). Non-live
// lanes sit the step out: identity doubled is identity.
func (l *batchLanes) stageDbl(i int) {
	if l.state[i] != laneLive {
		l.kind[i] = stepSkip
		l.denom[i] = feOne
		return
	}
	l.kind[i] = stepDbl
	feAdd(&l.denom[i], &l.y[i], &l.y[i])
}

// flush completes every staged addition with one shared inversion.
// The prefix-product passes run four interleaved chains: a single
// chain serializes on the multiplier latency, four independent ones
// keep the multiplier pipeline fed.
func (l *batchLanes) flush() { l.flushN(len(l.x)) }

// flushN is flush restricted to the first n lanes — for callers (the
// MSM bucket accumulator) that stage a variable number of additions
// into a fixed-capacity lane block per round.
func (l *batchLanes) flushN(n int) {
	if n == 0 {
		return
	}
	// Quarter bounds: [0,q1), [q1,q2), [q2,q3), [q3,n). Quarter sizes
	// can differ by one; the lockstep loops bounds-check each chain
	// (branches mispredict at most once).
	q1, q2, q3 := n/4, n/2, 3*n/4
	ln0, ln1, ln2, ln3 := q1, q2-q1, q3-q2, n-q3
	maxLen := ln3
	var acc [4]fe
	acc[0], acc[1], acc[2], acc[3] = feOne, feOne, feOne, feOne
	for j := 0; j < maxLen; j++ {
		if j < ln0 {
			l.pref[j] = acc[0]
			feMul(&acc[0], &acc[0], &l.denom[j])
		}
		if j < ln1 {
			l.pref[q1+j] = acc[1]
			feMul(&acc[1], &acc[1], &l.denom[q1+j])
		}
		if j < ln2 {
			l.pref[q2+j] = acc[2]
			feMul(&acc[2], &acc[2], &l.denom[q2+j])
		}
		l.pref[q3+j] = acc[3]
		feMul(&acc[3], &acc[3], &l.denom[q3+j])
	}
	// One inversion covers all four chains.
	var t01, t012, t0123, invAll fe
	feMul(&t01, &acc[0], &acc[1])
	feMul(&t012, &t01, &acc[2])
	feMul(&t0123, &t012, &acc[3])
	feInv(&invAll, &t0123)
	var inv [4]fe
	feMul(&inv[3], &invAll, &t012)
	feMul(&invAll, &invAll, &acc[3])
	feMul(&inv[2], &invAll, &t01)
	feMul(&invAll, &invAll, &acc[2])
	feMul(&inv[1], &invAll, &acc[0])
	feMul(&inv[0], &invAll, &acc[1])

	for j := maxLen - 1; j >= 0; j-- {
		if j < ln0 {
			l.completeLane(j, &inv[0])
		}
		if j < ln1 {
			l.completeLane(q1+j, &inv[1])
		}
		if j < ln2 {
			l.completeLane(q2+j, &inv[2])
		}
		l.completeLane(q3+j, &inv[3])
	}
}

// completeLane finishes lane i's staged addition given the running
// suffix inverse of its chain, updating the inverse in place.
func (l *batchLanes) completeLane(i int, inv *fe) {
	var dinv fe
	feMul(&dinv, inv, &l.pref[i])
	feMul(inv, inv, &l.denom[i])
	switch l.kind[i] {
	case stepAdd:
		e := l.ept[i]
		var lam, x3, y3 fe
		feSub(&lam, &e.y, &l.y[i])
		feMul(&lam, &lam, &dinv)
		feSqr(&x3, &lam)
		feSub(&x3, &x3, &l.x[i])
		feSub(&x3, &x3, &e.x)
		feSub(&y3, &l.x[i], &x3)
		feMul(&y3, &lam, &y3)
		feSub(&y3, &y3, &l.y[i])
		l.x[i] = x3
		l.y[i] = y3
	case stepDbl:
		// num = 3x² - 3 = 3(x² - 1)
		var num, t, lam, x3, y3 fe
		feSqr(&num, &l.x[i])
		feSub(&num, &num, &feOne)
		feAdd(&t, &num, &num)
		feAdd(&num, &t, &num)
		feMul(&lam, &num, &dinv)
		feSqr(&x3, &lam)
		feSub(&x3, &x3, &l.x[i])
		feSub(&x3, &x3, &l.x[i])
		feSub(&y3, &l.x[i], &x3)
		feMul(&y3, &lam, &y3)
		feSub(&y3, &y3, &l.y[i])
		l.x[i] = x3
		l.y[i] = y3
	}
}

// results materializes the lanes as Points backed by a single slab.
func (l *batchLanes) results() []*Point {
	out := make([]*Point, len(l.x))
	slab := make([]Point, len(l.x))
	for i := range l.x {
		p := &slab[i]
		if l.state[i] == laneLive {
			p.x = l.x[i]
			p.y = l.y[i]
			p.z = feOne
		}
		out[i] = p
	}
	return out
}

// seed initializes the lanes from existing points (for fused
// add-then-multiply batches): lane i starts at seeds[i]. Identity
// seeds leave the lane empty. The seeds are normalized in batch if any
// are non-affine.
func (l *batchLanes) seed(seeds []*Point) {
	allAffine := true
	for _, s := range seeds {
		if !s.IsIdentity() && !feEqual(&s.z, &feOne) {
			allAffine = false
			break
		}
	}
	if allAffine {
		for i, s := range seeds {
			if s.IsIdentity() {
				continue
			}
			l.x[i] = s.x
			l.y[i] = s.y
			l.state[i] = laneLive
		}
		return
	}
	aff, isID := normalizeBatch(seeds)
	for i := range seeds {
		if isID[i] {
			continue
		}
		l.x[i] = aff[i].x
		l.y[i] = aff[i].y
		l.state[i] = laneLive
	}
}
