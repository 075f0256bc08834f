package ecc

import (
	"math"
	"sync"
	"sync/atomic"
)

// Fixed-base comb tables. For a base P and window width w, the table
// stores v·2^(w·win)·P in affine form for every window win and digit
// v ∈ [1, 2^w). Evaluating k·P is then at most ceil(256/w) additions
// and zero doublings; evaluating a whole batch in lockstep through
// batchLanes shares one field inversion per window step, amortizing
// each addition to ~6 field multiplications.
//
// With combW = 12 a table is 22 windows × 4095 entries × 64 bytes
// ≈ 5.5 MiB and builds in under a tenth of a second — built once per
// hot base (the generator, lazily; a group's mixing key via WarmBase
// or on the first big batch) and reused for every round thereafter.

const (
	combW       = 12
	combDigits  = 1<<combW - 1 // per-window table entries
	combWindows = (256 + combW - 1) / combW
)

type combTable struct {
	tab []affinePoint // combWindows × combDigits
}

// buildComb precomputes the comb table for base p (p must not be the
// identity).
func buildComb(p *Point) *combTable {
	jac := make([]Point, combWindows*combDigits)
	base := *p
	for win := 0; win < combWindows; win++ {
		row := jac[win*combDigits:]
		row[0] = base
		for v := 1; v < combDigits; v++ {
			row[v].addInto(&row[v-1], &base)
		}
		if win < combWindows-1 {
			for s := 0; s < combW; s++ {
				base.dblInto(&base)
			}
		}
	}
	ptrs := make([]*Point, len(jac))
	for i := range jac {
		ptrs[i] = &jac[i]
	}
	aff, _ := normalizeBatch(ptrs)
	return &combTable{tab: aff}
}

// mulInto sets dst = k·base via the comb (no doublings, ≤ combWindows
// mixed additions).
func (t *combTable) mulInto(dst *Point, k *Scalar) {
	kc := k.canonical()
	*dst = Point{}
	for win := 0; win < combWindows; win++ {
		d := extractBits(&kc, uint(win)*combW, combW)
		if d != 0 {
			dst.addMixedInto(dst, &t.tab[win*combDigits+int(d)-1])
		}
	}
}

// mulAddBatch evaluates seed_i + k_i·base for every lane in lockstep
// with batched affine additions (seeds may be nil for plain k_i·base).
// Results are affine (Z = 1), so downstream Bytes() calls skip their
// per-point inversion.
func (t *combTable) mulAddBatch(ks []*Scalar, seeds []*Point) []*Point {
	lanes := newBatchLanes(len(ks))
	if seeds != nil {
		if len(seeds) != len(ks) {
			panic("ecc: mulAddBatch length mismatch")
		}
		lanes.seed(seeds)
	}
	kcs := make([][4]uint64, len(ks))
	for i, k := range ks {
		kcs[i] = k.canonical()
	}
	for win := 0; win < combWindows; win++ {
		pos := uint(win) * combW
		row := t.tab[win*combDigits:]
		for i := range kcs {
			d := extractBits(&kcs[i], pos, combW)
			if d != 0 {
				lanes.stage(i, &row[d-1])
			} else {
				lanes.skip(i)
			}
		}
		lanes.flush()
	}
	return lanes.results()
}

// --- generator table ---

var (
	gTableOnce sync.Once
	gTable     *combTable
)

func generatorTable() *combTable {
	gTableOnce.Do(func() {
		gTable = buildComb(Generator())
	})
	return gTable
}

// BaseMul returns k·g for the group generator g. It is faster than
// Generator().Mul(k) because it uses the precomputed base comb.
func BaseMul(k *Scalar) *Point {
	r := new(Point)
	generatorTable().mulInto(r, k)
	return r
}

// BaseMulBatch returns k·g for every scalar, sharing one field
// inversion per comb window across the whole batch. Results are
// affine-normalized.
func BaseMulBatch(ks []*Scalar) []*Point {
	return generatorTable().mulAddBatch(ks, nil)
}

// BaseMulAddBatch returns adds[i] + ks[i]·g for every lane, fusing the
// fixed-base multiplication and the addition into the same batched
// affine pipeline (the rerandomization step R' = R + r·g costs no
// separate point addition).
func BaseMulAddBatch(adds []*Point, ks []*Scalar) []*Point {
	return generatorTable().mulAddBatch(ks, adds)
}

// --- per-base table registry ---

// tableRegistry caches combs for hot non-generator bases (mixing
// public keys), keyed by compressed point encoding. Bounded: a
// long-lived deployment sees a handful of distinct keys, but a test
// run generating thousands of throwaway keys must not accumulate
// megabyte-scale tables forever. A full registry evicts the entry
// looked up longest ago, so the keys a live deployment mixes under
// outlast the dead keys of deployments set up around it.
const tableRegistryCap = 8

type tableEntry struct {
	tab  *combTable
	used atomic.Uint64 // tableClock at the last hit
}

var (
	tableRegistryMu sync.RWMutex
	tableRegistry   = make(map[[33]byte]*tableEntry, tableRegistryCap)
	tableClock      atomic.Uint64
)

func tableKey(p *Point) [33]byte {
	var k [33]byte
	copy(k[:], p.Bytes())
	return k
}

// lookupKey returns the registered comb for key, stamping the hit.
func lookupKey(key [33]byte) *combTable {
	tableRegistryMu.RLock()
	defer tableRegistryMu.RUnlock()
	e := tableRegistry[key]
	if e == nil {
		return nil
	}
	e.used.Store(tableClock.Add(1))
	return e.tab
}

func lookupTable(p *Point) *combTable {
	if p.IsIdentity() {
		return nil
	}
	return lookupKey(tableKey(p))
}

func storeTable(key [33]byte, t *combTable) {
	tableRegistryMu.Lock()
	defer tableRegistryMu.Unlock()
	if _, ok := tableRegistry[key]; !ok && len(tableRegistry) >= tableRegistryCap {
		var lru [33]byte
		oldest := uint64(math.MaxUint64)
		for k, e := range tableRegistry {
			if u := e.used.Load(); u < oldest {
				lru, oldest = k, u
			}
		}
		delete(tableRegistry, lru)
	}
	e := &tableEntry{tab: t}
	e.used.Store(tableClock.Add(1))
	tableRegistry[key] = e
}

// WarmBase precomputes and caches a fixed-base comb for p (typically a
// group's combined mixing key), accelerating subsequent Mul, MulBatch
// and MulAddBatch calls against it. Building costs tens of
// milliseconds and ~1.6 MiB; deployments call it once per key, at
// setup.
func WarmBase(p *Point) {
	if p.IsIdentity() {
		return
	}
	key := tableKey(p)
	if lookupKey(key) != nil {
		return
	}
	storeTable(key, buildComb(p))
}

// mulBatchThreshold is the batch size at which MulBatch builds (and
// caches) a comb for an unwarmed base rather than falling back to
// per-element wNAF: the build amortizes to nothing over a round's
// thousands of multiplications against the same key.
const mulBatchThreshold = 64

func tableForBatch(p *Point, n int) *combTable {
	t := lookupTable(p)
	if t == nil && n >= mulBatchThreshold {
		key := tableKey(p)
		t = buildComb(p)
		storeTable(key, t)
	}
	return t
}

// MulBatch returns k·p for every scalar against the common base p.
// With a warmed (or batch-size-justified) comb the whole batch shares
// one inversion per window step and the results are affine-normalized;
// otherwise it falls back to independent wNAF multiplications.
func MulBatch(p *Point, ks []*Scalar) []*Point {
	if p.IsIdentity() {
		out := make([]*Point, len(ks))
		for i := range out {
			out[i] = Identity()
		}
		return out
	}
	if t := tableForBatch(p, len(ks)); t != nil {
		return t.mulAddBatch(ks, nil)
	}
	out := make([]*Point, len(ks))
	slab := make([]Point, len(ks))
	for i, k := range ks {
		mulInto(&slab[i], p, k)
		out[i] = &slab[i]
	}
	return out
}

// MulAddBatch returns adds[i] + ks[i]·p for every lane against the
// common base p — the fused form of MulBatch, used by re-encryption
// batches (C' = C + r·pk).
func MulAddBatch(p *Point, adds []*Point, ks []*Scalar) []*Point {
	if len(adds) != len(ks) {
		panic("ecc: MulAddBatch length mismatch")
	}
	if p.IsIdentity() {
		out := make([]*Point, len(ks))
		for i := range out {
			out[i] = adds[i].Clone()
		}
		return out
	}
	if t := tableForBatch(p, len(ks)); t != nil {
		return t.mulAddBatch(ks, adds)
	}
	out := make([]*Point, len(ks))
	slab := make([]Point, len(ks))
	for i, k := range ks {
		mulInto(&slab[i], p, k)
		slab[i].addInto(&slab[i], adds[i])
		out[i] = &slab[i]
	}
	return out
}
