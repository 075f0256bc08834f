package protocol

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
)

// numShards is the fan-out of the duplicate-submission filter. Sixteen
// shards keep lock contention negligible at the submission rates the
// proof verification (which runs outside any lock) allows.
const numShards = 16

// ingestShard is one shard of a round's duplicate-ciphertext filter,
// keyed by the leading fingerprint byte.
type ingestShard struct {
	mu   sync.Mutex
	seen map[string]bool
}

// roundGroup is one entry group's per-round ingestion buffer. Each
// group has its own lock, so submissions to different entry groups
// never contend; the expensive proof verification happens before any
// lock is taken.
type roundGroup struct {
	mu          sync.Mutex
	batch       []elgamal.Vector
	commitments map[string]int // trap variant: commitment bytes → user
	entries     []entryRecord
}

// RoundState is the per-round half of a deployment: the ingestion
// buffers, duplicate filters, trap commitments, entry records for the
// §4.6 blame procedure, and (in the trap variant) the round's trustee
// key. Deployments hold only static material (group keys, wiring), so
// any number of RoundStates can accept submissions concurrently — in
// particular, round r+1 ingests while round r mixes.
//
// SubmitUser, SubmitTrapUser and SubmitEncoded are safe for concurrent
// use by multiple goroutines.
type RoundState struct {
	id      uint64
	d       *Deployment
	variant Variant

	// trustees is the trap variant's per-round key authority (§4.4:
	// "the group keys change across rounds").
	trustees *Trustees

	// mix is the parallelism knob the round mixes with, snapshotted
	// from the deployment at OpenRound (overridable per round with
	// SetMixConfig before Mix).
	mix MixConfig

	shards [numShards]ingestShard
	groups []roundGroup

	// sealed flips once mixing starts; late submissions are rejected
	// with ErrRoundClosed. Writes happen before the sealing goroutine
	// acquires the group locks, so any submission that got its append in
	// is part of the mixed batch and any other sees the flag.
	sealed atomic.Bool

	// mixing guards against mixing the same round twice (the second
	// pass would see empty buffers and, in the trap variant, trip on
	// its own leftover commitments).
	mixing atomic.Bool

	// pending counts accepted submissions (trap pairs count once);
	// rejected counts submissions turned away by admission control
	// (failed proofs, duplicates, late arrivals) — the ingestion
	// accounting the continuous service reports per round.
	pending  atomic.Int64
	rejected atomic.Int64
}

// OpenRound creates a fresh round: empty buffers and, in the trap
// variant, a newly generated trustee round key. The returned round
// accepts submissions immediately and independently of any other
// round's lifecycle.
func (d *Deployment) OpenRound() (*RoundState, error) {
	d.mu.Lock()
	variant, numTrustees := d.cfg.Variant, d.cfg.NumTrustees
	d.mu.Unlock()
	rs := &RoundState{
		id:      d.roundSeq.Add(1),
		d:       d,
		variant: variant,
		mix:     d.cfg.Mix,
		groups:  make([]roundGroup, len(d.groups)),
	}
	for i := range rs.shards {
		rs.shards[i].seen = make(map[string]bool)
	}
	for i := range rs.groups {
		rs.groups[i].commitments = make(map[string]int)
	}
	if variant == VariantTrap {
		t, err := NewTrustees(numTrustees, d.rnd)
		if err != nil {
			return nil, fmt.Errorf("protocol: rotating trustee key: %w", err)
		}
		rs.trustees = t
	}
	return rs, nil
}

// ID returns the round's deployment-unique sequence number.
func (rs *RoundState) ID() uint64 { return rs.id }

// Variant returns the defense variant the round was opened under.
func (rs *RoundState) Variant() Variant { return rs.variant }

// Pending returns the number of submissions accepted so far.
func (rs *RoundState) Pending() int { return int(rs.pending.Load()) }

// Rejected returns the number of submissions admission control turned
// away (failed proofs, duplicates, late arrivals after sealing).
func (rs *RoundState) Rejected() int { return int(rs.rejected.Load()) }

// noteRejected folds a submission failure into the round's admission
// accounting.
func (rs *RoundState) noteRejected(err error) error {
	if err != nil {
		rs.rejected.Add(1)
	}
	return err
}

// Sealed reports whether the round has been sealed for mixing.
func (rs *RoundState) Sealed() bool { return rs.sealed.Load() }

// MixConfig returns the parallelism knob the round will mix with.
func (rs *RoundState) MixConfig() MixConfig { return rs.mix }

// SetMixConfig overrides the deployment's parallelism knob for this
// round. Call it before mixing starts; it is not synchronized with a
// concurrent RunRoundCtx.
func (rs *RoundState) SetMixConfig(m MixConfig) { rs.mix = m }

// TrusteePK returns the round's trustee public key (trap variant only);
// users CCA2-encrypt their inner ciphertexts to it.
func (rs *RoundState) TrusteePK() (*ecc.Point, error) {
	if rs.trustees == nil {
		return nil, fmt.Errorf("%w: round %d has no trustees (variant %v)", ErrWrongVariant, rs.id, rs.variant)
	}
	return rs.trustees.PK(), nil
}

// shardFor picks the duplicate-filter shard for a fingerprint.
func (rs *RoundState) shardFor(fp string) *ingestShard {
	if len(fp) == 0 {
		return &rs.shards[0]
	}
	return &rs.shards[int(fp[0])%numShards]
}

// reserve claims a fingerprint in the duplicate filter, failing on
// replays.
func (rs *RoundState) reserve(fp string) error {
	s := rs.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[fp] {
		return fmt.Errorf("%w: submission rejected (replayed ciphertext)", ErrDuplicateSubmission)
	}
	s.seen[fp] = true
	return nil
}

// release undoes a reserve when a later validation step fails.
func (rs *RoundState) release(fp string) {
	s := rs.shardFor(fp)
	s.mu.Lock()
	delete(s.seen, fp)
	s.mu.Unlock()
}

// SubmitUser accepts a NIZK-variant submission: all (simulated) servers
// of the entry group verify the EncProof, and exact duplicates are
// rejected (§3: the NIZK prevents rerandomized copies; the fingerprint
// shards prevent byte-identical replays within the round). Safe for
// concurrent use.
func (rs *RoundState) SubmitUser(user int, sub *Submission) error {
	return rs.noteRejected(rs.submitUser(user, sub))
}

func (rs *RoundState) submitUser(user int, sub *Submission) error {
	if rs.variant != VariantNIZK {
		return fmt.Errorf("%w: SubmitUser requires the NIZK variant", ErrWrongVariant)
	}
	if rs.sealed.Load() {
		return fmt.Errorf("%w: round %d is mixing", ErrRoundClosed, rs.id)
	}
	g, err := rs.d.groupFor(sub.GID)
	if err != nil {
		return err
	}
	// Proof verification is the hot path; it runs with no locks held.
	if err := verifySubmissionVector(g.PK, sub.Ciphertext, sub.GID, sub.Proof, rs.d.cfg.NumPoints()); err != nil {
		return err
	}
	return rs.admitVerified(user, sub)
}

// SubmitTrapUser accepts a trap-variant submission: both EncProofs are
// verified, both ciphertexts enter the entry group's batch as
// independent messages, and the trap commitment is stored (§4.4). Safe
// for concurrent use.
func (rs *RoundState) SubmitTrapUser(user int, sub *TrapSubmission) error {
	return rs.noteRejected(rs.submitTrapUser(user, sub))
}

func (rs *RoundState) submitTrapUser(user int, sub *TrapSubmission) error {
	if rs.variant != VariantTrap {
		return fmt.Errorf("%w: SubmitTrapUser requires the trap variant", ErrWrongVariant)
	}
	if rs.sealed.Load() {
		return fmt.Errorf("%w: round %d is mixing", ErrRoundClosed, rs.id)
	}
	g, err := rs.d.groupFor(sub.GID)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := verifySubmissionVector(g.PK, sub.Ciphertexts[i], sub.GID, sub.Proofs[i], rs.d.cfg.NumPoints()); err != nil {
			return fmt.Errorf("ciphertext %d: %w", i, err)
		}
	}
	return rs.admitVerifiedTrap(user, sub)
}

// SubmitEncoded accepts a wire-encoded submission in whichever format
// the round's variant expects — the path remote users take.
func (rs *RoundState) SubmitEncoded(user int, wire []byte) error {
	switch rs.variant {
	case VariantNIZK:
		sub, err := DecodeSubmission(wire)
		if err != nil {
			return rs.noteRejected(fmt.Errorf("%w: %v", ErrBadSubmission, err))
		}
		return rs.SubmitUser(user, sub)
	default:
		sub, err := DecodeTrapSubmission(wire)
		if err != nil {
			return rs.noteRejected(fmt.Errorf("%w: %v", ErrBadSubmission, err))
		}
		return rs.SubmitTrapUser(user, sub)
	}
}

// seal closes the round to submissions and snapshots the per-group
// batches for mixing. Acquiring each group's lock after flipping the
// flag guarantees every in-flight append is either included in the
// snapshot or rejected with ErrRoundClosed — no submission is silently
// dropped.
func (rs *RoundState) seal() [][]elgamal.Vector {
	rs.sealed.Store(true)
	batches := make([][]elgamal.Vector, len(rs.groups))
	for gi := range rs.groups {
		rg := &rs.groups[gi]
		rg.mu.Lock()
		batches[gi] = rg.batch
		rg.batch = nil
		rg.mu.Unlock()
	}
	return batches
}

// IterationStats is the per-mixing-iteration observability record
// reported through RoundHooks and accumulated into RoundResult.
type IterationStats struct {
	// Round is the round's sequence number.
	Round uint64
	// Layer is the 0-based mixing iteration.
	Layer int
	// Duration is the driver-observed time between the previous layer's
	// completion (or the start of mixing) and this one's — the same
	// meaning on the in-process and the distributed link, where it also
	// includes network latency. Groups run in parallel and layers
	// pipeline without a barrier.
	Duration time.Duration
	// Messages is the number of ciphertext vectors entering the layer.
	Messages int
	// Shuffles, ReEncs and ProofsChecked total the per-group work.
	Shuffles      int
	ReEncs        int
	ProofsChecked int
	// Workers is the per-group worker-pool size (MixConfig, resolved);
	// ActiveGroups counts the groups that held messages this iteration;
	// WorkerBusy totals the time workers spent inside crypto tasks
	// across all groups. Utilization of the iteration's pools is
	// WorkerBusy / (Duration × Workers × ActiveGroups).
	Workers      int
	ActiveGroups int
	WorkerBusy   time.Duration
	// Codec totals the time group members spent encoding and decoding
	// chain messages across all groups (zero on the in-process link,
	// which hands steps over by reference).
	Codec time.Duration
	// Members totals the groups' live memberships for the iteration
	// (G×k when every server is up). A value below that ceiling means
	// the round is mixing in degraded mode: some group is running on its
	// h−1 spare budget (§4.5).
	Members int
}

// RoundHooks carries the observability callbacks RunRoundCtx invokes.
// Nil hooks (or nil fields) are skipped. Callbacks run synchronously on
// the mixing goroutine; keep them cheap.
type RoundHooks struct {
	// IterationDone fires after every mixing iteration completes.
	IterationDone func(IterationStats)
}
