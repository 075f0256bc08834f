package protocol

import (
	"context"
	"crypto/rand"
	"crypto/sha3"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/beacon"
	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/groupmgr"
	"atom/internal/nizk"
	"atom/internal/parallel"
	"atom/internal/taxonomy"
	"atom/internal/topology"
)

// Adversary injects malicious-server behavior into a round for testing
// and for demonstrating the two defenses. The hook fires in group GID at
// mixing iteration Layer, after the active member at position Member has
// shuffled; whatever batch it returns (non-nil) replaces that member's
// output.
type Adversary struct {
	Layer  int
	GID    int
	Member int
	Tamper func(batch []elgamal.Vector) []elgamal.Vector
}

// entryRecord remembers who submitted what, enabling the §4.6
// malicious-user identification procedure.
type entryRecord struct {
	User int
	Sub  *Submission
	Trap *TrapSubmission
}

// escrowKey addresses one member's share escrow at one buddy group.
type escrowKey struct {
	gid   int
	buddy int
	pos   int
}

// Deployment is a complete in-process Atom network: G groups of k
// servers each with DVSS keys and the permutation-network wiring. The
// deployment itself holds only round-independent material; everything a
// single round accumulates (ingestion buffers, duplicate filters, trap
// commitments, the trustees' per-round key) lives in a RoundState, so
// one round can ingest submissions while another mixes.
type Deployment struct {
	cfg     Config
	topo    topology.Topology
	beacon  beacon.Source
	groups  []*GroupState
	rnd     io.Reader
	escrows map[escrowKey]*dvss.Escrow

	// roundSeq issues round ids.
	roundSeq atomic.Uint64

	// mixMu serializes in-process mixing: only one round runs its T
	// iterations at a time (the paper's lock-step organization; §4.7
	// pipelining means overlapping ingestion with mixing, which needs no
	// second mixer).
	mixMu sync.Mutex

	// mu guards cfg.Variant and adversary.
	mu        sync.Mutex
	adversary *Adversary
}

// NewDeployment forms groups from the beacon, runs every group's DVSS
// (and the trustees' keygen in the trap variant), and escrows key shares
// with buddy groups when configured. Trust roots are the legacy
// trusted-dealer defaults; NewDeploymentSetup makes them explicit.
func NewDeployment(cfg Config) (*Deployment, error) {
	return newDeployment(cfg, Setup{})
}

// newDeployment is the shared constructor body behind NewDeployment and
// NewDeploymentSetup.
func newDeployment(cfg Config, s Setup) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		return nil, err
	}
	if s.Source == nil {
		s.Source = beacon.New(cfg.Seed)
	}
	infos, err := groupmgr.Form(groupmgr.Config{
		NumServers: cfg.NumServers,
		NumGroups:  cfg.NumGroups,
		GroupSize:  cfg.GroupSize,
		HonestMin:  cfg.HonestMin,
		Fraction:   cfg.Fraction,
		BuddyCount: cfg.BuddyCount,
	}, s.Source, s.Round)
	if err != nil {
		return nil, err
	}

	d := &Deployment{
		cfg:     cfg,
		topo:    topo,
		beacon:  s.Source,
		groups:  make([]*GroupState, len(infos)),
		rnd:     rand.Reader,
		escrows: make(map[escrowKey]*dvss.Escrow),
	}

	// Group key establishment — the in-process trusted dealer or the
	// Setup hook's ceremony. Either way the groups are independent; run
	// them in parallel (§4.1: "this operation will happen in the
	// background").
	var wg sync.WaitGroup
	errs := make([]error, len(infos))
	for i, info := range infos {
		wg.Add(1)
		go func(i int, info *groupmgr.Group) {
			defer wg.Done()
			var gs *GroupState
			var err error
			if s.GroupKeys != nil {
				var keys []*dvss.GroupKey
				keys, err = s.GroupKeys(info.ID, info.Members, cfg.Threshold())
				if err == nil {
					gs, err = newGroupStateFromKeys(info, cfg.Threshold(), keys)
				}
			} else {
				gs, err = newGroupState(info, cfg.Threshold(), rand.Reader)
			}
			if err != nil {
				errs[i] = err
				return
			}
			d.groups[i] = gs
		}(i, info)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Buddy escrow of every member's share (§4.5).
	if cfg.BuddyCount > 0 {
		for _, g := range d.groups {
			for _, buddy := range g.Info.Buddies {
				bsize := len(d.groups[buddy].Info.Members)
				for pos := range g.Info.Members {
					esc, err := dvss.EscrowShare(pos+1, g.Keys[pos].Share, bsize, cfg.Threshold(), rand.Reader)
					if err != nil {
						return nil, fmt.Errorf("protocol: escrow group %d pos %d: %w", g.Info.ID, pos, err)
					}
					d.escrows[escrowKey{g.Info.ID, buddy, pos}] = esc
				}
			}
		}
	}
	return d, nil
}

// Config returns a copy of the deployment's configuration.
func (d *Deployment) Config() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// NumGroups returns G.
func (d *Deployment) NumGroups() int { return len(d.groups) }

// Topology returns the deployment's permutation network — what a
// distributed mixer needs to route inter-group batches.
func (d *Deployment) Topology() topology.Topology { return d.topo }

// GroupRoster is one group's public wiring plus the per-member secret
// material for a round: the DVSS indices of the active chain in mixing
// order, each member's effective (Lagrange-weighted) secret, and the
// matching effective public keys every verifier checks proofs against.
// Secrets[i] belongs to the member at Indices[i] and nobody else; a
// distributed deployment hands each member only its own entry (the
// in-process constructor plays the role of the DKG ceremony that would
// otherwise have placed the share there).
type GroupRoster struct {
	GID     int
	PK      *ecc.Point
	Indices []int
	Secrets []*ecc.Scalar
	EffPubs []*ecc.Point
}

// GroupRoster exports group gid's chain material for hosting its
// members outside this process. It fails with ErrRecoveryNeeded when
// the group is under threshold.
func (d *Deployment) GroupRoster(gid int) (*GroupRoster, error) {
	g, err := d.groupFor(gid)
	if err != nil {
		return nil, err
	}
	return g.roster()
}

// GroupPK returns the public key of group gid (what users encrypt to).
func (d *Deployment) GroupPK(gid int) (*ecc.Point, error) {
	if gid < 0 || gid >= len(d.groups) {
		return nil, fmt.Errorf("%w: group %d", taxonomy.ErrNoSuchGroup, gid)
	}
	return d.groups[gid].PK, nil
}

// SetAdversary installs a malicious-server hook for the next round.
func (d *Deployment) SetAdversary(a *Adversary) {
	d.mu.Lock()
	d.adversary = a
	d.mu.Unlock()
}

// takeAdversary consumes the installed hook: it is one-shot, claimed by
// the first round to start mixing whatever that round's outcome.
func (d *Deployment) takeAdversary() *Adversary {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.adversary
	d.adversary = nil
	return a
}

func (d *Deployment) groupFor(gid int) (*GroupState, error) {
	if gid < 0 || gid >= len(d.groups) {
		return nil, fmt.Errorf("%w: group %d", taxonomy.ErrNoSuchGroup, gid)
	}
	return d.groups[gid], nil
}

// checkSubmissionShape runs the structural half of submission admission
// — everything that precedes the (expensive) proof verification. The
// batched admission plane runs it separately so only well-formed vectors
// enter the combined proof check.
func checkSubmissionShape(v elgamal.Vector, numPoints int) error {
	if len(v) != numPoints {
		return fmt.Errorf("%w: submission has %d points, want %d", taxonomy.ErrBadSubmission, len(v), numPoints)
	}
	for _, ct := range v {
		if ct.Y != nil {
			return fmt.Errorf("%w: submission carries a mid-chain Y slot", taxonomy.ErrBadSubmission)
		}
	}
	return nil
}

func verifySubmissionVector(pk *ecc.Point, v elgamal.Vector, gid int, proof *nizk.EncProof, numPoints int) error {
	if err := checkSubmissionShape(v, numPoints); err != nil {
		return err
	}
	if err := nizk.VerifyEnc(pk, v, uint64(gid), proof); err != nil {
		return fmt.Errorf("%w: %v", taxonomy.ErrBadSubmission, err)
	}
	return nil
}

// RoundResult is the outcome of one successful round.
type RoundResult struct {
	// Round is the round's deployment-unique sequence number.
	Round uint64
	// Messages are the anonymized plaintexts, deduplicated of protocol
	// framing, in canonical order (the mixing has destroyed any
	// correspondence to submission order).
	Messages [][]byte
	// ExitOutputs maps exit group id to the raw routed payloads it
	// published (traps included in the trap variant).
	ExitOutputs map[int][][]byte
	// Traces records per-group per-layer work for accounting.
	Traces []StepTrace
	// Iterations records per-layer latency and work totals.
	Iterations []IterationStats
	// Duration is the wall-clock time of the whole mixing phase.
	Duration time.Duration
	// Admitted, Rejected and SealedBatch report the round's ingestion:
	// accepted submissions, submissions turned away by admission
	// control, and the ciphertext-vector count sealed for layer 0 (trap
	// rounds carry two vectors per submission).
	Admitted    int
	Rejected    int
	SealedBatch int
}

// MixJob is one sealed round handed to a Mixer: the per-entry-group
// batches plus everything the mixing needs to know about the round.
type MixJob struct {
	// Ctx cancels the mixing.
	Ctx context.Context
	// Round is the round's sequence number (tags messages and stats).
	Round uint64
	// Variant selects NIZK proofs vs trap accounting.
	Variant Variant
	// Batches[g] is entry group g's sealed batch for layer 0.
	Batches [][]elgamal.Vector
	// Workers is the resolved per-group worker-pool size.
	Workers int
	// Adversary, when non-nil, is the malicious-server hook for this
	// round (testing and defense demonstrations).
	Adversary *Adversary
	// Hooks carries the per-iteration observability callbacks.
	Hooks *RoundHooks
}

// MixOutcome is what a Mixer returns for a completed round.
type MixOutcome struct {
	// ExitPayloads maps exit group id to its decrypted routed payloads.
	ExitPayloads map[int][][]byte
	// Traces records per-group per-layer work.
	Traces []StepTrace
	// Iterations records per-layer latency and work totals.
	Iterations []IterationStats
}

// Mixer executes the T mixing iterations of a sealed round across all
// groups. Both implementations run the same Seat state machine: the
// in-process driver (every seat in this process, steps handed over by
// reference) and the distributed cluster (internal/distributed, each
// seat behind its own transport endpoint and the hop codec). MixSealed
// accepts either, so ingestion, sealing, the variant finale and blame
// records are identical no matter where the cryptography physically
// ran. MixSealed may call MixRound for several rounds at once — as many
// as the caller's pipeline depth.
type Mixer interface {
	MixRound(job *MixJob) (*MixOutcome, error)
}

// SealedRound is one round's sealed ingestion: the per-entry-group
// batches snapshotted out of its RoundState, plus the round's admission
// accounting. Sealing is the irreversible close of the round to
// submissions; the sealed value is the element of the continuous
// service's append-only batch queue, carried unchanged through any
// churn-triggered mixing restarts.
type SealedRound struct {
	rs       *RoundState
	batches  [][]elgamal.Vector
	admitted int
	rejected int

	// SealedAt records when the round closed to submissions.
	SealedAt time.Time

	// mixing guards against mixing the same sealed batches twice.
	mixing atomic.Bool
}

// Round returns the sealed round's sequence number.
func (s *SealedRound) Round() uint64 { return s.rs.id }

// Admitted returns how many submissions the round accepted before
// sealing.
func (s *SealedRound) Admitted() int { return s.admitted }

// Rejected returns how many submissions the round's admission control
// had turned away by seal time.
func (s *SealedRound) Rejected() int { return s.rejected }

// BatchSize returns the total ciphertext-vector count across the
// per-entry-group batches (trap rounds carry two vectors per
// submission).
func (s *SealedRound) BatchSize() int {
	n := 0
	for _, b := range s.batches {
		n += len(b)
	}
	return n
}

// SealRound closes rs to submissions and snapshots its batches — the
// seal-at-deadline / seal-at-capacity step of the continuous service's
// round scheduler, so sealing is driven by a schedule while mixing is
// driven by the pipeline's free slots. Sealing a round twice fails with
// ErrRoundClosed.
func (d *Deployment) SealRound(rs *RoundState) (*SealedRound, error) {
	if !rs.mixing.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: round %d already sealed", taxonomy.ErrRoundClosed, rs.id)
	}
	return &SealedRound{
		rs:       rs,
		batches:  rs.seal(),
		admitted: rs.Pending(),
		rejected: rs.Rejected(),
		SealedAt: time.Now(),
	}, nil
}

// RunRoundCtx seals rs and executes its T mixing iterations on the
// in-process mixer plus the variant-specific finale, honoring ctx
// cancellation and deadlines between (and within) iterations. It returns
// an error wrapping ErrTrapTripped when a defense trips,
// ErrProofRejected when a NIZK proof fails, ErrRecoveryNeeded when a
// group is under threshold, and ctx.Err() when canceled; after an abort
// the round's records stay available to rs.IdentifyMaliciousUsers.
//
// Only one round mixes at a time, but other open rounds keep accepting
// submissions while this runs — the §4.7 pipelined organization.
func (d *Deployment) RunRoundCtx(ctx context.Context, rs *RoundState, hooks *RoundHooks) (*RoundResult, error) {
	// A context that is already dead must not consume the round: the
	// caller can retry (or keep submitting) with a live one.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: round %d not started: %w", taxonomy.ErrRoundAborted, rs.id, err)
	}
	sealed, err := d.SealRound(rs)
	if err != nil {
		return nil, err
	}
	return d.MixSealed(ctx, sealed, hooks, nil)
}

// MixSealed mixes a sealed round's batches and applies the variant
// finale and blame records. It may run concurrently with other rounds'
// mixes: the continuous service seals rounds on a schedule and
// dispatches them here as pipeline slots free up. A nil mixer selects
// the in-process mixer. The sealed batches are single-use; a second
// MixSealed fails with ErrRoundClosed — except after a dead-on-arrival
// context, which leaves the sealed round retryable.
func (d *Deployment) MixSealed(ctx context.Context, sealed *SealedRound, hooks *RoundHooks, mixer Mixer) (*RoundResult, error) {
	rs := sealed.rs
	if !sealed.mixing.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("%w: round %d already mixed", taxonomy.ErrRoundClosed, rs.id)
	}
	if err := ctx.Err(); err != nil {
		sealed.mixing.Store(false) // batches survive; retry with a live context
		return nil, fmt.Errorf("%w: round %d not started: %w", taxonomy.ErrRoundAborted, rs.id, err)
	}
	if mixer == nil {
		// The in-process groups mix one round at a time; taking the lock
		// here keeps the wait out of the round's reported Duration. Any
		// other mixer bounds its own concurrency.
		d.mixMu.Lock()
		defer d.mixMu.Unlock()
		mixer = localDriver{d}
	}
	start := time.Now()
	job := &MixJob{
		Ctx:       ctx,
		Round:     rs.id,
		Variant:   rs.variant,
		Batches:   sealed.batches,
		Workers:   rs.mix.effectiveWorkers(len(d.groups)),
		Adversary: d.takeAdversary(),
		Hooks:     hooks,
	}
	out, err := mixer.MixRound(job)
	if err != nil {
		// Whichever mixer ran it, a round its context ended is aborted.
		if parallel.Canceled(err) && !errors.Is(err, taxonomy.ErrRoundAborted) {
			err = fmt.Errorf("%w: round %d: %w", taxonomy.ErrRoundAborted, rs.id, err)
		}
		return nil, err
	}

	res, err := d.finishRound(rs, out.ExitPayloads)
	if err != nil {
		return nil, err
	}
	res.Round = rs.id
	res.Traces = out.Traces
	res.Iterations = out.Iterations
	res.Duration = time.Since(start)
	res.Admitted = sealed.admitted
	res.Rejected = sealed.rejected
	res.SealedBatch = sealed.BatchSize()
	return res, nil
}

// finishRound applies the variant-specific finale to the exit outputs.
// On an abort the round's entry records are kept for the §4.6 blame
// procedure.
func (d *Deployment) finishRound(rs *RoundState, exitPayloads map[int][][]byte) (*RoundResult, error) {
	res := &RoundResult{ExitOutputs: exitPayloads}
	switch rs.variant {
	case VariantNIZK:
		for _, payloads := range exitPayloads {
			for _, p := range payloads {
				body, kind, err := DecodePlaintext(p)
				if err != nil || kind != kindMessage {
					return nil, fmt.Errorf("protocol: NIZK round produced non-message payload")
				}
				msg, err := unpadMessage(body)
				if err != nil {
					return nil, err
				}
				res.Messages = append(res.Messages, msg)
			}
		}
		sortMessages(res.Messages)
	case VariantTrap:
		msgs, err := d.trapFinale(rs, exitPayloads)
		if err != nil {
			return nil, err
		}
		res.Messages = msgs
	default:
		return nil, fmt.Errorf("protocol: unknown variant %v", rs.variant)
	}
	return res, nil
}

// sortMessages orders messages lexicographically: the exit order is
// already unlinkable to submission order, and a canonical order makes
// results reproducible for bulletin publication.
func sortMessages(msgs [][]byte) {
	sort.Slice(msgs, func(i, j int) bool { return string(msgs[i]) < string(msgs[j]) })
}

// hashToGroup is the deterministic load-balancing function that assigns
// an inner ciphertext to a checking group (§4.4: "chosen by a
// deterministic function that will load-balance … e.g., using universal
// hashing").
func hashToGroup(payload []byte, G int) int {
	h := sha3.New256()
	h.Write([]byte("atom/inner-routing/v1"))
	h.Write(payload)
	return int(binary.BigEndian.Uint64(h.Sum(nil)[:8]) % uint64(G))
}

// SwitchVariant changes the active-attack defense for subsequent rounds
// — the §4.6 escalation: "If the DoS attack is persistent after many
// rounds, Atom can fall back to using NIZKs, effectively trading off
// performance for availability." Rounds opened after the switch use the
// new variant (a trap round provisions fresh trustees as it opens);
// rounds opened before it keep the variant they were opened under, since
// pending submissions are encoding-incompatible across variants.
func (d *Deployment) SwitchVariant(v Variant) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg.Variant = v
	if v == VariantTrap && d.cfg.NumTrustees < 1 {
		d.cfg.NumTrustees = d.cfg.GroupSize
	}
}
