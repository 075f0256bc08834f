package protocol

import (
	"context"
	"crypto/rand"
	"fmt"
	"sort"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/parallel"
	"atom/internal/topology"
)

// MaxPipelinedRounds caps how many rounds a driver mixes concurrently
// over one set of seats: more would let a live round's state age out of
// the seats' pruning window.
const MaxPipelinedRounds = 8

// pipelineWindow is how many base rounds of per-round state a seat
// retains behind the newest it has seen. Cross-round pipelining means a
// batch for round r can still arrive while rounds up to
// r+MaxPipelinedRounds−1 are already flowing, so the window keeps 2×
// that margin; anything further back is settled (published, aborted, or
// canceled) and its assemblies are garbage.
const pipelineWindow = 2 * MaxPipelinedRounds

// SeatConfig is one member position in one group's mixing chain: its
// identity, its (and only its) secret, and the public material it
// verifies the other members against and forwards with.
type SeatConfig struct {
	// GID and Pos locate the seat: group id and 0-based position in the
	// group's active chain.
	GID, Pos int
	// Indices are the DVSS indices of the chain, in order (Indices[Pos]
	// is this seat's).
	Indices []int
	// Secret is the seat's effective (Lagrange-weighted) secret.
	Secret *ecc.Scalar
	// EffPubs are the chain's effective public keys — the public DKG
	// material proofs are verified against, never the prover's claim.
	EffPubs []*ecc.Point
	// GroupPKs indexes every group's key by gid: this group's is what its
	// batches are encrypted to, the others are re-encryption destinations.
	GroupPKs []*ecc.Point
	// Variant selects NIZK proofs vs trap accounting.
	Variant Variant
	// Workers bounds the seat's crypto pool when a round's batches carry
	// no worker knob of their own.
	Workers int
	// Topo is the permutation network the group mixes over.
	Topo topology.Topology
}

// StepKind names the chain steps of Algorithms 1–2.
type StepKind uint8

const (
	// StepBatch is one inbound batch at a group's first seat: the
	// driver's layer-0 injection (Src −1) or group Src's output of the
	// previous layer. When the layer's last source lands, the shuffle
	// chain starts.
	StepBatch StepKind = iota
	// StepShuffle moves the shuffle chain one seat forward: the sender's
	// shuffle (In, Out, Proof), which the receiver verifies before it
	// shuffles Out itself.
	StepShuffle
	// StepDivide closes the shuffle chain at the first seat, which
	// verifies the last seat's shuffle, divides the output into β
	// batches and starts the re-encryption chain.
	StepDivide
	// StepReEnc moves the re-encryption chain one seat forward. Seq is
	// the receiver's 1-based step; step K wraps to the first seat, which
	// verifies the last seat's proofs, clears the Y slots and forwards.
	StepReEnc
)

// Step is one typed chain message between seats. A link passes it by
// reference (in process) or encodes it (over a transport); either way
// the sender never touches a step after handing it over.
type Step struct {
	Kind StepKind
	// Round is the round attempt the step belongs to; Layer its mixing
	// iteration.
	Round uint64
	Layer int
	// StepBatch: the source group (−1 = the driver's injection), the
	// round's worker knob, and the vectors.
	Src     int
	Workers int
	Vecs    []elgamal.Vector
	// StepShuffle, StepDivide: the sender's shuffle step.
	In, Out []elgamal.Vector
	Proof   *nizk.ShufProof // nil outside the NIZK variant
	// StepReEnc: the receiver's step number and the sender's β per-batch
	// re-encryptions.
	Seq     int
	Batches []ReEncBatch
	// Work is the group's accounting for the layer so far (StepBatch:
	// only the time spent decoding it).
	Work LayerWork
}

// ReEncBatch is one batch of a seat's re-encryption step.
type ReEncBatch struct {
	In, Out []elgamal.Vector
	Proofs  []*nizk.ReEncProof // nil outside the NIZK variant
}

// LayerWork is a group's accounting for one layer, accumulated along its
// chain and reported by its first seat when the layer is done.
type LayerWork struct {
	Msgs     int // vectors entering the layer
	Workers  int // the round's worker knob (0 = the seat's configured default)
	Shuffles int
	ReEncs   int
	Proofs   int
	BusyNs   int64 // worker-pool time inside crypto tasks
	// CodecNs is the time the group's seats spent encoding and decoding
	// the layer's chain messages — time outside the pool that BusyNs
	// cannot see. Zero on the in-process link, which has no codec.
	CodecNs int64
}

// SeatLink carries a seat's outbound steps: the in-process link hands
// them to other seats' mailboxes by reference, a distributed member
// encodes them with the hop codec onto its transport.
type SeatLink interface {
	// Chain hands s to chain position pos of the seat's own group.
	Chain(ctx context.Context, pos int, s *Step) error
	// Finish passes the group's finished layer on: batches[i] becomes
	// group dests[i]'s next-layer StepBatch, or — at the exit layer,
	// where dests is nil — batches[0] is the group's plaintext output.
	// w is the layer's report.
	Finish(ctx context.Context, round uint64, layer int, dests []int, batches [][]elgamal.Vector, w LayerWork) error
}

// assembly accumulates a layer's inbound batches at the first seat.
type assembly struct {
	got map[int][]elgamal.Vector // source gid (−1 = the driver) → batch
	// workers is the round's worker knob carried by the inbound batches.
	workers int
	// codecNs is the time spent decoding the batches, the first entry of
	// the layer's work.CodecNs.
	codecNs int64
}

// Seat is one member position in one group's chain — the only round
// engine (§4.2, Algorithms 1–2). Per layer the first seat assembles the
// inbound batches in ascending source order; every seat verifies its
// predecessor's shuffle before it shuffles, the first seat divides, and
// every seat verifies its predecessor's re-encryptions before it peels
// its own layer; back at the first seat the Y slots are cleared and the
// batches forwarded. Every proof is thus verified once, by the next
// honest seat in the ring, before anything builds on it — the
// serial-chain stand-in for the paper's "all servers in the group verify
// the proof" (a full deployment would broadcast each step to all k
// members; the ring preserves the abort-and-blame behavior the rest of
// the system consumes). A seat is not safe for concurrent use: its
// driver feeds it one step at a time.
type Seat struct {
	cfg  SeatConfig
	link SeatLink

	// Tamper, when set, may replace the seat's shuffle output (the
	// Adversary surface): it returns the replacement for (round, layer),
	// or nil to leave the output alone.
	Tamper func(round uint64, layer int, out []elgamal.Vector) []elgamal.Vector
	// Progress observes the seat's mixing position (a no-op by default).
	Progress func(round uint64, layer int, phase string)

	// pending[round][layer] assembles inbound batches (first seat).
	pending map[uint64]map[int]*assembly
	// canceled marks round attempts the driver gave up on.
	canceled map[uint64]bool
	maxRound uint64
}

// NewSeat validates cfg and builds the seat with an empty per-round
// slate.
func NewSeat(cfg SeatConfig, link SeatLink) (*Seat, error) {
	k := len(cfg.Indices)
	if cfg.Pos < 0 || cfg.Pos >= k || len(cfg.EffPubs) != k || cfg.Secret == nil {
		return nil, fmt.Errorf("protocol: inconsistent seat (pos %d of %d indices, %d effpubs)", cfg.Pos, k, len(cfg.EffPubs))
	}
	if cfg.Topo == nil || cfg.GID < 0 || cfg.GID >= cfg.Topo.Groups() || len(cfg.GroupPKs) != cfg.Topo.Groups() {
		return nil, fmt.Errorf("protocol: seat does not match its topology (gid %d, %d group keys)", cfg.GID, len(cfg.GroupPKs))
	}
	return &Seat{
		cfg:      cfg,
		link:     link,
		Progress: func(uint64, int, string) {},
		pending:  make(map[uint64]map[int]*assembly),
		canceled: make(map[uint64]bool),
	}, nil
}

// Cancel drops a round attempt: its assemblies go, and its later steps
// are ignored.
func (s *Seat) Cancel(round uint64) {
	s.canceled[round] = true
	delete(s.pending, round)
}

// Canceled reports whether the round attempt was canceled.
func (s *Seat) Canceled(round uint64) bool { return s.canceled[round] }

// observe prunes state of rounds that have fallen out of the pipelining
// window. Round attempt ids carry the attempt counter in their low byte,
// so the window compares base rounds (id >> 8): attempts of live rounds
// are never pruned by each other — stale attempts die by Cancel instead.
// Only rounds behind the newest can be stale: a cancel recorded for an
// attempt the seat has not seen yet must survive.
func (s *Seat) observe(round uint64) {
	if round <= s.maxRound {
		return
	}
	s.maxRound = round
	floor := round >> 8
	for r := range s.pending {
		if r>>8+pipelineWindow < floor {
			delete(s.pending, r)
		}
	}
	for r := range s.canceled {
		if r>>8+pipelineWindow < floor {
			delete(s.canceled, r)
		}
	}
}

// Handle consumes one inbound step. An error aborts the round attempt;
// the driver reports it and cancels the attempt.
func (s *Seat) Handle(ctx context.Context, st *Step) error {
	if s.canceled[st.Round] {
		return nil
	}
	switch st.Kind {
	case StepBatch:
		return s.assemble(ctx, st)
	case StepShuffle, StepDivide:
		return s.shuffled(ctx, st)
	default:
		return s.reencrypted(ctx, st)
	}
}

// pool builds the worker pool all per-message cryptography of one step
// fans over (fresh per step, so busy time is attributable). workers is
// the round's knob from the chain; values below 1 fall back to the
// seat's configured default.
func (s *Seat) pool(ctx context.Context, workers int) *parallel.Pool {
	if workers < 1 {
		workers = s.cfg.Workers
	}
	return parallel.New(ctx, workers)
}

// rejected classifies a failed verification of the step chain member idx
// sent: a *Blame wrapping ErrProofRejected — unless the round's context
// expired mid-verification, which is a cancellation and never a
// byzantine fault pinned on an innocent member.
func (s *Seat) rejected(idx int, what string, err error) error {
	if parallel.Canceled(err) {
		return fmt.Errorf("protocol: mixing canceled: %w", err)
	}
	return &Blame{GID: s.cfg.GID, Member: idx, Err: fmt.Errorf(
		"%w: group %d aborts — member %d %s rejected: %v", ErrProofRejected, s.cfg.GID, idx, what, err)}
}

// checkLayer bounds a layer before it reaches topology arithmetic (a
// hostile layer must fail typed, not panic or smuggle a mid-network batch
// onto the ⊥ exit path).
func (s *Seat) checkLayer(layer int) error {
	if layer < 0 || layer >= s.cfg.Topo.Iterations() {
		return fmt.Errorf("protocol: group %d: out-of-range layer %d", s.cfg.GID, layer)
	}
	return nil
}

// dests resolves the layer's forwarding: destination gids and their
// public keys, or no gids and the single ⊥ key at the exit layer.
func (s *Seat) dests(layer int) ([]int, []*ecc.Point) {
	dests := s.cfg.Topo.Neighbors(layer, s.cfg.GID)
	if len(dests) == 0 {
		return nil, []*ecc.Point{nil}
	}
	pks := make([]*ecc.Point, len(dests))
	for i, dst := range dests {
		pks[i] = s.cfg.GroupPKs[dst]
	}
	return dests, pks
}

// assemble (first seat) collects a layer's inbound batches and starts
// the shuffle chain once the last one lands.
func (s *Seat) assemble(ctx context.Context, st *Step) error {
	if s.cfg.Pos != 0 {
		return fmt.Errorf("protocol: group %d member %d received a batch (first member's job)", s.cfg.GID, s.cfg.Pos)
	}
	if err := s.checkLayer(st.Layer); err != nil {
		return err
	}
	s.observe(st.Round)
	byLayer := s.pending[st.Round]
	if byLayer == nil {
		byLayer = make(map[int]*assembly)
		s.pending[st.Round] = byLayer
	}
	asm := byLayer[st.Layer]
	if asm == nil {
		asm = &assembly{got: make(map[int][]elgamal.Vector)}
		byLayer[st.Layer] = asm
	}
	if _, dup := asm.got[st.Src]; dup {
		return fmt.Errorf("protocol: group %d layer %d: duplicate batch from %d", s.cfg.GID, st.Layer, st.Src)
	}
	s.Progress(st.Round, st.Layer, "assemble")
	asm.got[st.Src] = st.Vecs
	asm.codecNs += st.Work.CodecNs
	asm.workers = max(asm.workers, st.Workers)
	want := 1 // the driver's injection
	if st.Layer > 0 {
		want = len(s.cfg.Topo.Sources(st.Layer, s.cfg.GID))
	}
	if len(asm.got) < want {
		return nil
	}
	delete(byLayer, st.Layer)
	srcs := make([]int, 0, len(asm.got))
	for src := range asm.got {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	var batch []elgamal.Vector
	for _, src := range srcs {
		batch = append(batch, asm.got[src]...)
	}
	return s.shuffle(ctx, st.Round, st.Layer, batch, LayerWork{Msgs: len(batch), Workers: asm.workers, CodecNs: asm.codecNs})
}

// shuffle performs this seat's shuffle of the layer and passes the chain
// on: to the next seat, or back to the first to divide.
func (s *Seat) shuffle(ctx context.Context, round uint64, layer int, in []elgamal.Vector, w LayerWork) error {
	if len(in) == 0 {
		// Empty layer: nothing to permute or prove anywhere in the chain.
		_, pks := s.dests(layer)
		return s.finish(ctx, round, layer, make([][]elgamal.Vector, len(pks)), w)
	}
	s.Progress(round, layer, "shuffle")
	pool := s.pool(ctx, w.Workers)
	me := s.cfg.Indices[s.cfg.Pos]
	out, perm, rands, err := elgamal.ShuffleBatchPar(s.cfg.GroupPKs[s.cfg.GID], in, rand.Reader, pool)
	if err != nil {
		return fmt.Errorf("protocol: group %d member %d shuffle: %w", s.cfg.GID, me, err)
	}
	w.Shuffles++
	if s.Tamper != nil {
		// The malicious-server hook interposes before the proof, so a
		// tampered output carries a proof that fails, as a malicious
		// prover's would.
		if evil := s.Tamper(round, layer, out); evil != nil {
			out = evil
		}
	}
	var proof *nizk.ShufProof
	if s.cfg.Variant == VariantNIZK {
		if proof, err = nizk.ProveShufflePar(s.cfg.GroupPKs[s.cfg.GID], in, out, perm, rands, rand.Reader, pool); err != nil {
			return fmt.Errorf("protocol: group %d member %d shuffle proof: %w", s.cfg.GID, me, err)
		}
	}
	w.BusyNs += pool.Busy().Nanoseconds()
	kind, next := StepShuffle, s.cfg.Pos+1
	if next == len(s.cfg.Indices) {
		kind, next = StepDivide, 0
	}
	return s.link.Chain(ctx, next, &Step{
		Kind: kind, Round: round, Layer: layer, In: in, Out: out, Proof: proof, Work: w,
	})
}

// shuffled verifies the predecessor's shuffle, then either shuffles the
// output itself or — back at the first seat — divides it and starts the
// re-encryption chain.
func (s *Seat) shuffled(ctx context.Context, st *Step) error {
	k := len(s.cfg.Indices)
	sender := s.cfg.Pos - 1
	if st.Kind == StepDivide {
		sender = k - 1
	}
	if (st.Kind == StepShuffle) == (s.cfg.Pos == 0) {
		return fmt.Errorf("protocol: group %d member %d: shuffle step kind %d misrouted", s.cfg.GID, s.cfg.Pos, st.Kind)
	}
	s.observe(st.Round)
	if err := s.checkLayer(st.Layer); err != nil {
		return err
	}
	w := st.Work
	if s.cfg.Variant == VariantNIZK {
		pool := s.pool(ctx, w.Workers)
		if err := nizk.VerifyShufflePar(s.cfg.GroupPKs[s.cfg.GID], st.In, st.Out, st.Proof, pool); err != nil {
			return s.rejected(s.cfg.Indices[sender], "shuffle", err)
		}
		w.Proofs++
		w.BusyNs += pool.Busy().Nanoseconds()
	}
	if st.Kind == StepShuffle {
		return s.shuffle(ctx, st.Round, st.Layer, st.Out, w)
	}
	_, pks := s.dests(st.Layer)
	return s.reencrypt(ctx, st.Round, st.Layer, divide(st.Out, len(pks)), w)
}

// reencrypt performs this seat's decrypt-and-reencrypt of every batch
// and passes the chain on (step K wraps to the first seat).
func (s *Seat) reencrypt(ctx context.Context, round uint64, layer int, ins [][]elgamal.Vector, w LayerWork) error {
	s.Progress(round, layer, "reenc")
	_, pks := s.dests(layer)
	if len(ins) != len(pks) {
		return fmt.Errorf("protocol: group %d layer %d: %d batches for %d destinations", s.cfg.GID, layer, len(ins), len(pks))
	}
	pool := s.pool(ctx, w.Workers)
	me, myPub := s.cfg.Indices[s.cfg.Pos], s.cfg.EffPubs[s.cfg.Pos]
	batches := make([]ReEncBatch, len(ins))
	for i, in := range ins {
		if len(in) == 0 {
			continue
		}
		// Peel this seat's layer and re-encrypt toward the destination
		// (nil = decrypt to plaintext at the exit layer).
		out, rss, err := elgamal.ReEncBatchPar(s.cfg.Secret, pks[i], in, rand.Reader, pool)
		if err != nil {
			return fmt.Errorf("protocol: group %d member %d reenc: %w", s.cfg.GID, me, err)
		}
		w.ReEncs += len(in)
		batches[i] = ReEncBatch{In: in, Out: out}
		if s.cfg.Variant == VariantNIZK {
			// Per-vector proofs are independent: generate them across the
			// pool (randomness drawn through a locked reader).
			prnd := parallel.LockedReader(rand.Reader)
			batches[i].Proofs, err = parallel.Map(pool, len(in), func(vi int) (*nizk.ReEncProof, error) {
				return nizk.ProveReEnc(s.cfg.Secret, myPub, pks[i], in[vi], out[vi], rss[vi], prnd)
			})
			if err != nil {
				return fmt.Errorf("protocol: group %d member %d reenc proof: %w", s.cfg.GID, me, err)
			}
		}
	}
	w.BusyNs += pool.Busy().Nanoseconds()
	return s.link.Chain(ctx, (s.cfg.Pos+1)%len(s.cfg.Indices), &Step{
		Kind: StepReEnc, Round: round, Layer: layer, Seq: s.cfg.Pos + 1, Batches: batches, Work: w,
	})
}

// reencrypted verifies the predecessor's re-encryptions, then either
// re-encrypts itself (mid-chain) or — at step K, back at the first seat
// — finishes the layer.
func (s *Seat) reencrypted(ctx context.Context, st *Step) error {
	k := len(s.cfg.Indices)
	if st.Seq < 1 || st.Seq > k || s.cfg.Pos != st.Seq%k {
		return fmt.Errorf("protocol: group %d member %d: reenc step %d misrouted", s.cfg.GID, s.cfg.Pos, st.Seq)
	}
	s.observe(st.Round)
	if err := s.checkLayer(st.Layer); err != nil {
		return err
	}
	_, pks := s.dests(st.Layer)
	if len(st.Batches) != len(pks) {
		return fmt.Errorf("protocol: group %d layer %d: %d reenc batches for %d destinations", s.cfg.GID, st.Layer, len(st.Batches), len(pks))
	}
	w := st.Work
	if s.cfg.Variant == VariantNIZK {
		// One batched random-linear-combination check per batch, against
		// the sender's effective key from this seat's own roster.
		pool := s.pool(ctx, w.Workers)
		sender := st.Seq - 1
		for i, b := range st.Batches {
			if len(b.Out) == 0 {
				continue
			}
			if err := nizk.VerifyReEncBatch(s.cfg.EffPubs[sender], pks[i], b.In, b.Out, b.Proofs, pool); err != nil {
				return s.rejected(s.cfg.Indices[sender], "reencryption", err)
			}
			w.Proofs += len(b.Out)
		}
		w.BusyNs += pool.Busy().Nanoseconds()
	}
	outs := make([][]elgamal.Vector, len(st.Batches))
	for i := range st.Batches {
		outs[i] = st.Batches[i].Out
	}
	if st.Seq == k {
		return s.finish(ctx, st.Round, st.Layer, outs, w)
	}
	return s.reencrypt(ctx, st.Round, st.Layer, outs, w)
}

// finish (first seat) clears the Y slots — the last server's final touch
// (Appendix A) — and hands the layer to the link.
func (s *Seat) finish(ctx context.Context, round uint64, layer int, batches [][]elgamal.Vector, w LayerWork) error {
	s.Progress(round, layer, "forward")
	for i := range batches {
		batches[i] = clearYBatch(batches[i])
	}
	dests, _ := s.dests(layer)
	return s.link.Finish(ctx, round, layer, dests, batches, w)
}

// divide splits a shuffled batch into β contiguous sub-batches exactly
// as the topology declares the split (Algorithm 1 step 2).
func divide(batch []elgamal.Vector, beta int) [][]elgamal.Vector {
	sizes := topology.BatchSizes(len(batch), beta)
	out := make([][]elgamal.Vector, beta)
	off := 0
	for i := 0; i < beta; i++ {
		out[i] = batch[off : off+sizes[i]]
		off += sizes[i]
	}
	return out
}

// clearYBatch clears the Y slot of every vector — the last server's
// final touch before the batch leaves the group (Appendix A).
func clearYBatch(batch []elgamal.Vector) []elgamal.Vector {
	for vi := range batch {
		batch[vi] = elgamal.ClearYVector(batch[vi])
	}
	return batch
}
