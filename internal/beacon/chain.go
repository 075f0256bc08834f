package beacon

import (
	"bytes"
	"crypto/sha3"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"atom/internal/dvss"
	"atom/internal/ecc"
)

// This file is the chained, publicly-verifiable randomness beacon: a
// threshold VRF in the DLEQ (Chaum–Pedersen) model, since P-256 has no
// pairing to aggregate BLS partials under. Each round r commits to the
// previous round's output:
//
//	M_r = HashToPoint(chainHash ‖ r ‖ prevOutput)
//	V_i = s_i·M_r                     (member i's partial, s_i its DKG share)
//	S   = Σ λ_i·V_i = x·M_r           (any t partials; x the never-assembled group secret)
//	Output_r = SHA3(r ‖ S)
//
// A partial carries a DLEQ proof that log_g(g^{s_i}) = log_{M_r}(V_i),
// where g^{s_i} is computable by anyone from the public Feldman
// commitments — so a Round (the t partials plus the combined output) is
// verifiable by any holder of the ChainInfo, no member trust required.
// Unpredictability: producing Output_r requires t shares; bias
// resistance: the value is a deterministic function of the key and the
// chain prefix, so no member can grind it.

// Typed chain errors. ErrBadLink and ErrBadRound both match ErrChain.
var (
	// ErrChain is the parent of every chain verification failure.
	ErrChain = errors.New("beacon: chain verification failed")
	// ErrBadLink marks a round whose Prev does not equal the chain
	// head's output, or whose number is not head+1 — a fork or a gap.
	ErrBadLink = fmt.Errorf("%w: bad link", ErrChain)
	// ErrBadRound marks a round whose partials or combined output fail
	// cryptographic verification.
	ErrBadRound = fmt.Errorf("%w: bad round", ErrChain)
)

// ChainInfo is the public description of a beacon chain: the
// DKG-generated group key material partial signatures verify against,
// and the genesis seed. Everyone holding it can verify any chain prefix.
type ChainInfo struct {
	PK          *ecc.Point
	Commitments []*ecc.Point // aggregated Feldman commitments, length = Threshold
	Threshold   int
	Size        int
	GenesisSeed []byte
}

// InfoFromKey builds the chain description from one member's DKG result
// — the public half only, identical for every member of the group.
func InfoFromKey(key *dvss.GroupKey, genesisSeed []byte) *ChainInfo {
	return &ChainInfo{
		PK:          key.PK,
		Commitments: key.Commitments,
		Threshold:   key.Threshold,
		Size:        key.Size,
		GenesisSeed: append([]byte(nil), genesisSeed...),
	}
}

// Hash returns the canonical SHA3-256 hash of the chain description.
// It pins every round's message derivation to this exact group key and
// genesis, so two chains under different keys can never share a link.
func (ci *ChainInfo) Hash() []byte {
	h := sha3.New256()
	h.Write([]byte("atom/beacon-chain/v1"))
	h.Write(ci.PK.Bytes())
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(ci.Threshold))
	h.Write(n[:])
	binary.BigEndian.PutUint64(n[:], uint64(ci.Size))
	h.Write(n[:])
	for _, c := range ci.Commitments {
		h.Write(c.Bytes())
	}
	h.Write(ci.GenesisSeed)
	return h.Sum(nil)
}

// validate rejects malformed chain descriptions.
func (ci *ChainInfo) validate() error {
	switch {
	case ci == nil:
		return errors.New("beacon: nil chain info")
	case ci.PK == nil || ci.PK.IsIdentity():
		return errors.New("beacon: chain info without group key")
	case ci.Threshold < 1 || ci.Threshold > ci.Size:
		return fmt.Errorf("beacon: chain threshold %d of %d", ci.Threshold, ci.Size)
	case len(ci.Commitments) != ci.Threshold:
		return fmt.Errorf("beacon: %d commitments for threshold %d", len(ci.Commitments), ci.Threshold)
	}
	return nil
}

// Genesis returns the chain's round-0 output: a pure function of the
// chain description, so every member starts from the same head.
func (ci *ChainInfo) Genesis() []byte {
	h := sha3.New256()
	h.Write([]byte("atom/beacon-genesis/v1"))
	h.Write(ci.Hash())
	return h.Sum(nil)
}

// message derives the group element round number signs over.
func (ci *ChainInfo) message(number uint64, prev []byte) *ecc.Point {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], number)
	return ecc.HashToPoint([]byte("atom/beacon-msg/v1"), ci.Hash(), n[:], prev)
}

// Partial is one member's contribution to a beacon round: V = s_i·M
// plus a Chaum–Pedersen DLEQ proof binding V to the member's public
// share image g^{s_i} (derivable from the Feldman commitments), so a
// partial is verifiable without any secret.
type Partial struct {
	Index int
	V     *ecc.Point
	E, S  *ecc.Scalar
}

// dleqTag domain-separates the proof transcript.
var dleqTag = []byte("atom/beacon-dleq/v1")

// SignPartial produces member index's partial for the given round. The
// proof nonce is derived deterministically from the share and message
// (RFC 6979 style), so signing is reproducible and needs no entropy —
// a crashed-and-restarted member re-emits the identical partial.
func (ci *ChainInfo) SignPartial(index int, share *ecc.Scalar, number uint64, prev []byte) (*Partial, error) {
	if index < 1 || index > ci.Size {
		return nil, fmt.Errorf("beacon: partial index %d out of range", index)
	}
	if share == nil {
		return nil, errors.New("beacon: nil share")
	}
	m := ci.message(number, prev)
	v := m.Mul(share)
	pub := dvss.ShareCommitment(ci.Commitments, index)
	k := ecc.HashToScalar([]byte("atom/beacon-nonce/v1"), share.Bytes(), m.Bytes())
	if k.IsZero() {
		return nil, errors.New("beacon: degenerate nonce")
	}
	a1 := ecc.BaseMul(k)
	a2 := m.Mul(k)
	e := ecc.HashToScalar(dleqTag, ci.Hash(), pub.Bytes(), m.Bytes(), v.Bytes(), a1.Bytes(), a2.Bytes())
	s := k.Sub(e.Mul(share))
	return &Partial{Index: index, V: v, E: e, S: s}, nil
}

// VerifyPartial checks one partial against the chain's public key
// material for the given round.
func (ci *ChainInfo) VerifyPartial(p *Partial, number uint64, prev []byte) error {
	if p == nil || p.V == nil || p.E == nil || p.S == nil {
		return fmt.Errorf("%w: malformed partial", ErrBadRound)
	}
	if p.Index < 1 || p.Index > ci.Size {
		return fmt.Errorf("%w: partial index %d out of range", ErrBadRound, p.Index)
	}
	m := ci.message(number, prev)
	pub := dvss.ShareCommitment(ci.Commitments, p.Index)
	// A1 = g^s·pub^e, A2 = M^s·V^e; the proof is valid iff the challenge
	// recomputes.
	a1 := ecc.BaseMul(p.S).Add(pub.Mul(p.E))
	a2 := m.Mul(p.S).Add(p.V.Mul(p.E))
	e := ecc.HashToScalar(dleqTag, ci.Hash(), pub.Bytes(), m.Bytes(), p.V.Bytes(), a1.Bytes(), a2.Bytes())
	if !e.Equal(p.E) {
		return fmt.Errorf("%w: partial %d DLEQ proof rejected", ErrBadRound, p.Index)
	}
	return nil
}

// Round is one verified link of the beacon chain: the threshold set of
// partials that produced it, the previous round's output it commits to,
// and the combined output. Everything needed to verify it against a
// ChainInfo travels with it.
type Round struct {
	Number   uint64
	Prev     []byte
	Partials []*Partial
	Output   []byte
}

// outputOf hashes the combined VRF point into the round's 32-byte value.
func outputOf(number uint64, combined *ecc.Point) []byte {
	h := sha3.New256()
	h.Write([]byte("atom/beacon-out/v1"))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], number)
	h.Write(n[:])
	h.Write(combined.Bytes())
	return h.Sum(nil)
}

// combine Lagrange-interpolates the group VRF point from the partials'
// indices. Callers have already verified the partials.
func combine(partials []*Partial) (*ecc.Point, error) {
	subset := make([]int, len(partials))
	for i, p := range partials {
		subset[i] = p.Index
	}
	lambdas := make([]*ecc.Scalar, len(partials))
	points := make([]*ecc.Point, len(partials))
	for i, p := range partials {
		l, err := dvss.LagrangeCoeff(subset, p.Index)
		if err != nil {
			return nil, err
		}
		lambdas[i] = l
		points[i] = p.V
	}
	return ecc.MultiScalarMul(lambdas, points), nil
}

// Aggregate verifies the supplied partials for round number and combines
// exactly Threshold of them (lowest indices win) into a Round. Invalid
// or duplicate partials are skipped; fewer than Threshold valid ones is
// an ErrBadRound.
func (ci *ChainInfo) Aggregate(number uint64, prev []byte, partials []*Partial) (*Round, error) {
	if err := ci.validate(); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(partials))
	valid := make([]*Partial, 0, ci.Threshold)
	for _, p := range partials {
		if p == nil || seen[p.Index] {
			continue
		}
		if err := ci.VerifyPartial(p, number, prev); err != nil {
			continue
		}
		seen[p.Index] = true
		valid = append(valid, p)
	}
	if len(valid) < ci.Threshold {
		return nil, fmt.Errorf("%w: %d valid partials for threshold %d", ErrBadRound, len(valid), ci.Threshold)
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].Index < valid[j].Index })
	valid = valid[:ci.Threshold]
	combined, err := combine(valid)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRound, err)
	}
	return &Round{
		Number:   number,
		Prev:     append([]byte(nil), prev...),
		Partials: valid,
		Output:   outputOf(number, combined),
	}, nil
}

// VerifyRound checks a round end to end against the chain description
// and the previous output it must link to: the link, every partial's
// DLEQ proof, the threshold count, and the combined output.
func (ci *ChainInfo) VerifyRound(r *Round, prev []byte) error {
	if r == nil {
		return fmt.Errorf("%w: nil round", ErrBadRound)
	}
	if err := ci.validate(); err != nil {
		return err
	}
	if !bytes.Equal(r.Prev, prev) {
		return fmt.Errorf("%w: round %d does not commit to the expected previous output", ErrBadLink, r.Number)
	}
	if len(r.Partials) != ci.Threshold {
		return fmt.Errorf("%w: round %d has %d partials, threshold is %d", ErrBadRound, r.Number, len(r.Partials), ci.Threshold)
	}
	seen := make(map[int]bool, len(r.Partials))
	for _, p := range r.Partials {
		if err := ci.VerifyPartial(p, r.Number, prev); err != nil {
			return err
		}
		if seen[p.Index] {
			return fmt.Errorf("%w: round %d repeats partial index %d", ErrBadRound, r.Number, p.Index)
		}
		seen[p.Index] = true
	}
	combined, err := combine(r.Partials)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRound, err)
	}
	if !bytes.Equal(r.Output, outputOf(r.Number, combined)) {
		return fmt.Errorf("%w: round %d output does not match its partials", ErrBadRound, r.Number)
	}
	return nil
}

// Chain is one participant's verified view of the beacon: the chain
// description plus every accepted round up to the head. Appends verify
// the full link (chain position, previous-output commitment, partials,
// combined output) before the head advances, so a Chain can never hold
// an unverified value. It implements Source: Round(n) returns the
// output of an accepted round (or the genesis value for n = 0) and nil
// for rounds not yet reached — retaining the window most recent rounds'
// full records for catchup serving.
type Chain struct {
	mu      sync.Mutex
	info    *ChainInfo
	head    *Round // nil until the first append
	outputs map[uint64][]byte
	rounds  map[uint64]*Round
	window  int

	// onAppend, when set, observes every accepted round — the
	// persistence hook (the daemon journals the marshaled round).
	onAppend func(*Round)
}

// DefaultWindow is how many full round records a chain retains for
// serving catchup; outputs are retained for the same window.
const DefaultWindow = 512

// NewChain starts an empty verified chain at the genesis head.
func NewChain(info *ChainInfo) (*Chain, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	c := &Chain{
		info:    info,
		outputs: map[uint64][]byte{0: info.Genesis()},
		rounds:  make(map[uint64]*Round),
		window:  DefaultWindow,
	}
	return c, nil
}

// Info returns the chain's public description.
func (c *Chain) Info() *ChainInfo { return c.info }

// OnAppend installs the accepted-round observer (nil disables). The
// callback fires synchronously under the chain lock, in round order.
func (c *Chain) OnAppend(fn func(*Round)) {
	c.mu.Lock()
	c.onAppend = fn
	c.mu.Unlock()
}

// Head returns the latest accepted round number and its output; round 0
// and the genesis value before any append.
func (c *Chain) Head() (uint64, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == nil {
		return 0, append([]byte(nil), c.info.Genesis()...)
	}
	return c.head.Number, append([]byte(nil), c.head.Output...)
}

// HeadRound returns the latest accepted round record (nil at genesis).
func (c *Chain) HeadRound() *Round {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head
}

// Round implements Source: the output of an accepted round, nil when
// the chain has not reached it (or it fell out of the retained window).
func (c *Chain) Round(n uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.outputs[n]
	if !ok {
		return nil
	}
	return append([]byte(nil), out...)
}

// Record returns the full retained record of round n for catchup
// serving (nil if outside the window).
func (c *Chain) Record(n uint64) *Round {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds[n]
}

// Append verifies r as the next link and advances the head. Out-of-order
// or forked rounds fail with ErrBadLink; cryptographically invalid ones
// with ErrBadRound; neither moves the head.
func (c *Chain) Append(r *Round) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: nil round", ErrBadRound)
	}
	headNum := uint64(0)
	headOut := c.info.Genesis()
	if c.head != nil {
		headNum, headOut = c.head.Number, c.head.Output
	}
	if r.Number != headNum+1 {
		return fmt.Errorf("%w: round %d appended at head %d", ErrBadLink, r.Number, headNum)
	}
	if err := c.info.VerifyRound(r, headOut); err != nil {
		return err
	}
	c.head = r
	c.outputs[r.Number] = r.Output
	c.rounds[r.Number] = r
	if r.Number > uint64(c.window) {
		evict := r.Number - uint64(c.window)
		delete(c.rounds, evict)
		if evict > 0 { // never evict the genesis output
			delete(c.outputs, evict)
		}
	}
	if c.onAppend != nil {
		c.onAppend(r)
	}
	return nil
}

// Produce signs, aggregates and appends the chain's next round from the
// first Threshold of the committee's shares (nil entries — crashed
// members — are skipped), returning the new head number. It is the
// in-process stand-in for committee members exchanging partials over a
// transport; every partial is still verified by Aggregate and the full
// link by Append.
func (c *Chain) Produce(keys []*dvss.GroupKey) (uint64, error) {
	ci := c.Info()
	head, prev := c.Head()
	next := head + 1
	partials := make([]*Partial, 0, ci.Threshold)
	for _, k := range keys {
		if k == nil {
			continue
		}
		p, err := ci.SignPartial(k.Index, k.Share, next, prev)
		if err != nil {
			return 0, fmt.Errorf("beacon: partial %d: %w", k.Index, err)
		}
		if partials = append(partials, p); len(partials) == ci.Threshold {
			break
		}
	}
	r, err := ci.Aggregate(next, prev, partials)
	if err != nil {
		return 0, err
	}
	if err := c.Append(r); err != nil {
		return 0, err
	}
	return next, nil
}

// Catchup appends a batch of consecutive rounds fetched from a peer,
// verifying every link, and reports how many were accepted. Rounds at
// or below the current head are skipped (idempotent re-sync); the first
// bad link or bad round stops the batch with that error, keeping
// everything accepted before it.
func (c *Chain) Catchup(rounds []*Round) (int, error) {
	accepted := 0
	for _, r := range rounds {
		head, _ := c.Head()
		if r != nil && r.Number <= head {
			continue
		}
		if err := c.Append(r); err != nil {
			return accepted, err
		}
		accepted++
	}
	return accepted, nil
}

// SyncFrom pulls rounds from a peer until the chain reaches target.
// fetch(from) returns the peer's retained records strictly after round
// `from`, in order (empty = peer has nothing newer). Every fetched
// round is verified before it lands; a lying peer surfaces as
// ErrChain, never as silent acceptance.
func (c *Chain) SyncFrom(fetch func(after uint64) ([]*Round, error), target uint64) error {
	for {
		head, _ := c.Head()
		if head >= target {
			return nil
		}
		batch, err := fetch(head)
		if err != nil {
			return fmt.Errorf("beacon: catchup fetch after %d: %w", head, err)
		}
		if len(batch) == 0 {
			return fmt.Errorf("%w: peer has no rounds past %d (target %d)", ErrChain, head, target)
		}
		if _, err := c.Catchup(batch); err != nil {
			return err
		}
	}
}

// Records returns the retained full records strictly after round
// `after`, in order — the serving side of SyncFrom.
func (c *Chain) Records(after uint64) []*Round {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Round
	headNum := uint64(0)
	if c.head != nil {
		headNum = c.head.Number
	}
	for n := after + 1; n <= headNum; n++ {
		r, ok := c.rounds[n]
		if !ok {
			break // fell out of the window; caller must restart from a snapshot
		}
		out = append(out, r)
	}
	return out
}
