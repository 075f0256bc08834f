package protocol

import (
	"crypto/rand"
	"fmt"
	"time"

	"atom/internal/beacon"
	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/groupmgr"
	"atom/internal/taxonomy"
	"atom/internal/wirecodec"
)

// This file is the protocol layer's persistence surface: a stable codec
// for the deployment's durable key material (DVSS shares, Feldman
// commitments, buddy escrows, the failed sets and the round sequencer)
// and for sealed-but-unmixed rounds, so internal/store can journal both
// and a restarted coordinator can resume instead of re-running the DKG
// under fresh — and therefore useless — keys.

// deployStateVersion guards the deployment codec.
const deployStateVersion = 1

// MarshalState encodes the deployment's durable material: the round
// sequencer, every group's roster/buddy wiring, per-member DVSS keys
// with their Feldman commitments, the failed sets, and the buddy
// escrows. Ingestion buffers and per-round state are deliberately
// excluded — they live in sealed-round records.
func (d *Deployment) MarshalState() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	var e wirecodec.Enc
	e.Byte(deployStateVersion)
	e.U64(d.roundSeq.Load())
	e.U64(uint64(len(d.groups)))
	for _, g := range d.groups {
		e.I(g.Info.ID)
		e.Ints(g.Info.Members)
		e.Ints(g.Info.Buddies)
		e.Point(g.PK)
		e.I(g.threshold)
		var failed []int
		for pos := range g.Info.Members {
			if g.failed[pos] {
				failed = append(failed, pos)
			}
		}
		e.Ints(failed)
		e.U64(uint64(len(g.Keys)))
		for _, k := range g.Keys {
			e.Point(k.PK)
			e.Scalar(k.Share)
			e.I(k.Index)
			e.I(k.Threshold)
			e.I(k.Size)
			e.Points(k.Commitments)
		}
	}
	e.U64(uint64(len(d.escrows)))
	for key, esc := range d.escrows {
		e.I(key.gid)
		e.I(key.buddy)
		e.I(key.pos)
		e.I(esc.OwnerIndex)
		e.Points(esc.Commitments)
		e.Scalars(esc.Pieces)
	}
	return e.Out()
}

// RestoreDeployment rebuilds a deployment from cfg and persisted state
// instead of running a fresh DKG: group public keys, shares and escrows
// come back exactly as journaled, so ciphertexts encrypted to the old
// keys stay decryptable across a coordinator restart. Every restored
// share is verified against its Feldman commitments before it installs —
// damaged state surfaces as ErrStateCorrupt, never as a round that
// silently cannot decrypt.
//
// lastRound is the highest round id the caller's journal has seen; the
// round sequencer resumes past both it and the persisted sequence, so a
// restarted deployment never reissues a round id.
func RestoreDeployment(cfg Config, state []byte, lastRound uint64) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", taxonomy.ErrStateCorrupt, fmt.Sprintf(format, args...))
	}
	dec := wirecodec.NewDec(state)
	v, err := dec.Byte()
	if err != nil || v != deployStateVersion {
		return nil, corrupt("deployment state version")
	}
	seq, err := dec.U64()
	if err != nil {
		return nil, corrupt("round sequence: %v", err)
	}
	ngroups, err := dec.Count()
	if err != nil {
		return nil, corrupt("group count: %v", err)
	}
	if ngroups != topo.Groups() {
		return nil, corrupt("%d groups persisted, topology needs %d", ngroups, topo.Groups())
	}

	d := &Deployment{
		cfg:     cfg,
		topo:    topo,
		beacon:  beacon.New(cfg.Seed),
		groups:  make([]*GroupState, ngroups),
		rnd:     rand.Reader,
		escrows: make(map[escrowKey]*dvss.Escrow),
	}
	for i := range d.groups {
		g := &GroupState{
			Info:   &groupmgr.Group{},
			failed: make(map[int]bool),
		}
		if g.Info.ID, err = dec.I(); err != nil {
			return nil, corrupt("group id: %v", err)
		}
		if g.Info.Members, err = dec.Ints(); err != nil {
			return nil, corrupt("group %d members: %v", i, err)
		}
		if g.Info.Buddies, err = dec.Ints(); err != nil {
			return nil, corrupt("group %d buddies: %v", i, err)
		}
		if g.PK, err = dec.Point(); err != nil || g.PK == nil {
			return nil, corrupt("group %d public key", i)
		}
		// Restored groups mix immediately; re-warm the key's comb as
		// newGroupState would have.
		ecc.WarmBase(g.PK)
		if g.threshold, err = dec.I(); err != nil {
			return nil, corrupt("group %d threshold: %v", i, err)
		}
		failed, err := dec.Ints()
		if err != nil {
			return nil, corrupt("group %d failed set: %v", i, err)
		}
		for _, pos := range failed {
			if pos < 0 || pos >= len(g.Info.Members) {
				return nil, corrupt("group %d failed position %d out of range", i, pos)
			}
			g.failed[pos] = true
		}
		nkeys, err := dec.Count()
		if err != nil {
			return nil, corrupt("group %d key count: %v", i, err)
		}
		if nkeys != len(g.Info.Members) {
			return nil, corrupt("group %d has %d keys for %d members", i, nkeys, len(g.Info.Members))
		}
		g.Keys = make([]*dvss.GroupKey, nkeys)
		for pos := range g.Keys {
			k := &dvss.GroupKey{}
			if k.PK, err = dec.Point(); err != nil {
				return nil, corrupt("group %d key %d pk: %v", i, pos, err)
			}
			if k.Share, err = dec.Scalar(); err != nil {
				return nil, corrupt("group %d key %d share: %v", i, pos, err)
			}
			if k.Index, err = dec.I(); err != nil {
				return nil, corrupt("group %d key %d index: %v", i, pos, err)
			}
			if k.Threshold, err = dec.I(); err != nil {
				return nil, corrupt("group %d key %d threshold: %v", i, pos, err)
			}
			if k.Size, err = dec.I(); err != nil {
				return nil, corrupt("group %d key %d size: %v", i, pos, err)
			}
			if k.Commitments, err = dec.Points(); err != nil {
				return nil, corrupt("group %d key %d commitments: %v", i, pos, err)
			}
			// The load-bearing check: a restored share must open its
			// own Feldman commitments, or the bytes rotted on disk.
			if k.Share != nil {
				if verr := dvss.VerifyShare(k.Commitments, k.Index, k.Share); verr != nil {
					return nil, corrupt("group %d member %d share fails its Feldman commitments: %v", i, pos, verr)
				}
			}
			g.Keys[pos] = k
		}
		d.groups[i] = g
	}
	nescrows, err := dec.Count()
	if err != nil {
		return nil, corrupt("escrow count: %v", err)
	}
	for j := 0; j < nescrows; j++ {
		var key escrowKey
		esc := &dvss.Escrow{}
		if key.gid, err = dec.I(); err != nil {
			return nil, corrupt("escrow %d gid: %v", j, err)
		}
		if key.buddy, err = dec.I(); err != nil {
			return nil, corrupt("escrow %d buddy: %v", j, err)
		}
		if key.pos, err = dec.I(); err != nil {
			return nil, corrupt("escrow %d pos: %v", j, err)
		}
		if esc.OwnerIndex, err = dec.I(); err != nil {
			return nil, corrupt("escrow %d owner: %v", j, err)
		}
		if esc.Commitments, err = dec.Points(); err != nil {
			return nil, corrupt("escrow %d commitments: %v", j, err)
		}
		if esc.Pieces, err = dec.Scalars(); err != nil {
			return nil, corrupt("escrow %d pieces: %v", j, err)
		}
		d.escrows[key] = esc
	}
	if err := dec.Done(); err != nil {
		return nil, corrupt("%v", err)
	}

	if seq < lastRound {
		seq = lastRound
	}
	d.roundSeq.Store(seq)
	return d, nil
}

// sealedVersion guards the sealed-round codec.
const sealedVersion = 1

// Marshal encodes a sealed round for the journal: identity, admission
// accounting, the per-group layer-0 batches, and — in the trap
// variant — the round's trustee key shares and trap commitments, which
// the finale needs to release or destroy the decryption key after a
// restart. The §4.6 entry records (blame bookkeeping) are not encoded:
// retroactive blame does not survive a coordinator crash.
func (s *SealedRound) Marshal() []byte {
	rs := s.rs
	var e wirecodec.Enc
	e.Byte(sealedVersion)
	e.U64(rs.id)
	e.I(int(rs.variant))
	e.I(s.admitted)
	e.I(s.rejected)
	e.U64(uint64(s.SealedAt.UnixNano()))
	e.U64(uint64(len(s.batches)))
	for _, batch := range s.batches {
		e.Vectors(batch)
	}
	if rs.variant == VariantTrap {
		t := rs.trustees
		e.I(t.n)
		e.Point(t.pk)
		e.Scalars(t.shares)
		e.U64(uint64(len(rs.groups)))
		for gid := range rs.groups {
			rg := &rs.groups[gid]
			rg.mu.Lock()
			e.U64(uint64(len(rg.commitments)))
			for c, user := range rg.commitments {
				e.Bytes([]byte(c))
				e.I(user)
			}
			rg.mu.Unlock()
		}
	}
	return e.Out()
}

// RestoreSealedRound rebuilds a journaled sealed round against this
// deployment so MixSealed can re-dispatch it: a detached RoundState
// carries the recorded identity, variant, trap material and admission
// counters, and the deployment's round sequencer advances past the
// restored id so no later round collides with it.
func (d *Deployment) RestoreSealedRound(b []byte) (*SealedRound, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: sealed round: %s", taxonomy.ErrStateCorrupt, fmt.Sprintf(format, args...))
	}
	dec := wirecodec.NewDec(b)
	v, err := dec.Byte()
	if err != nil || v != sealedVersion {
		return nil, corrupt("version")
	}
	rs := &RoundState{d: d, mix: d.cfg.Mix}
	if rs.id, err = dec.U64(); err != nil {
		return nil, corrupt("round id: %v", err)
	}
	variant, err := dec.I()
	if err != nil {
		return nil, corrupt("variant: %v", err)
	}
	rs.variant = Variant(variant)
	admitted, err := dec.I()
	if err != nil {
		return nil, corrupt("admitted: %v", err)
	}
	rejected, err := dec.I()
	if err != nil {
		return nil, corrupt("rejected: %v", err)
	}
	sealedAt, err := dec.U64()
	if err != nil {
		return nil, corrupt("seal time: %v", err)
	}
	nbatches, err := dec.Count()
	if err != nil {
		return nil, corrupt("batch count: %v", err)
	}
	if nbatches != len(d.groups) {
		return nil, corrupt("%d batches for %d groups", nbatches, len(d.groups))
	}
	sealed := &SealedRound{
		rs:       rs,
		admitted: admitted,
		rejected: rejected,
		SealedAt: time.Unix(0, int64(sealedAt)),
	}
	sealed.batches = make([][]elgamal.Vector, nbatches)
	for gid := range sealed.batches {
		if sealed.batches[gid], err = dec.Vectors(); err != nil {
			return nil, corrupt("group %d batch: %v", gid, err)
		}
	}
	rs.groups = make([]roundGroup, len(d.groups))
	for i := range rs.shards {
		rs.shards[i].seen = make(map[string]bool)
	}
	for i := range rs.groups {
		rs.groups[i].commitments = make(map[string]int)
	}
	if rs.variant == VariantTrap {
		t := &Trustees{}
		if t.n, err = dec.I(); err != nil {
			return nil, corrupt("trustee count: %v", err)
		}
		if t.pk, err = dec.Point(); err != nil || t.pk == nil {
			return nil, corrupt("trustee key")
		}
		if t.shares, err = dec.Scalars(); err != nil {
			return nil, corrupt("trustee shares: %v", err)
		}
		if len(t.shares) != t.n {
			return nil, corrupt("%d trustee shares for %d trustees", len(t.shares), t.n)
		}
		rs.trustees = t
		ngroups, err := dec.Count()
		if err != nil {
			return nil, corrupt("commitment group count: %v", err)
		}
		if ngroups != len(d.groups) {
			return nil, corrupt("commitments for %d groups, deployment has %d", ngroups, len(d.groups))
		}
		for gid := 0; gid < ngroups; gid++ {
			n, err := dec.Count()
			if err != nil {
				return nil, corrupt("group %d commitment count: %v", gid, err)
			}
			for j := 0; j < n; j++ {
				c, err := dec.Bytes()
				if err != nil {
					return nil, corrupt("group %d commitment %d: %v", gid, j, err)
				}
				user, err := dec.I()
				if err != nil {
					return nil, corrupt("group %d commitment %d user: %v", gid, j, err)
				}
				rs.groups[gid].commitments[string(c)] = user
			}
		}
	}
	if err := dec.Done(); err != nil {
		return nil, corrupt("%v", err)
	}
	rs.pending.Store(int64(admitted))
	rs.rejected.Store(int64(rejected))
	// The round came off the journal sealed; only the mixing flag stays
	// down so MixSealed can claim it exactly once.
	rs.sealed.Store(true)
	rs.mixing.Store(true)

	// Never reissue a replayed id: push the sequencer past it.
	for {
		cur := d.roundSeq.Load()
		if cur >= rs.id || d.roundSeq.CompareAndSwap(cur, rs.id) {
			break
		}
	}
	return sealed, nil
}
