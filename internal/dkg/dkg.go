// Package dkg implements the joint-Feldman distributed key generation
// ceremony that removes Atom's last trusted-dealer assumption, plus the
// resharing variant that rotates operators in and out of a long-lived
// group without changing its public key.
//
// Fresh DKG (Pedersen's joint-Feldman, the construction drand deploys):
// every member deals a Feldman VSS of a fresh random secret; the group
// secret is the never-assembled sum of the qualified dealers' secrets.
// Three broadcast phases over internal/transport:
//
//	deal          each dealer sends every receiver its Feldman
//	              commitments plus that receiver's private share
//	response      each receiver broadcasts one vote per dealer —
//	              ok (with a commitment hash), complaint (share failed
//	              verification), or missing (no deal arrived)
//	justification each complained-against dealer publicly reveals the
//	              disputed shares, which anyone can check against its
//	              commitments
//
// Responses and justifications are echoed (re-broadcast once on first
// receipt), so every honest node tallies the same union of votes and
// derives the same qualified set QUAL, the same blame list, and the
// same group key — even when byzantine members send different messages
// to different peers. The transport is the authenticated channel; in a
// deployment where relays are untrusted the response/justification
// payloads would additionally be signed (noted in docs/ARCHITECTURE.md).
//
// Resharing reuses the same three phases with two changes: the dealers
// are a threshold subset of the old group dealing λ_d·oldShare_d (λ the
// Lagrange coefficient of the fixed subset), and each dealing's
// degree-0 commitment must equal the dealer's old public share image
// raised to λ_d — the binding that forces the new sharing to encode the
// old secret. Because the λ are fixed by the announced subset, a single
// disqualified dealer aborts the epoch (ErrAborted, with blame); the
// caller re-runs with a different subset. The group public key is
// unchanged by construction.
package dkg

import (
	"bytes"
	"crypto/sha3"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/taxonomy"
)

// Blame taxonomy. Every Fault carries exactly one of these sentinels;
// all of them match ErrSetupFailed, the parent of every
// ceremony failure.
var (
	// ErrComplaint: a receiver's bad-share complaint stood — the dealer
	// published no justification covering it. Dealer disqualified.
	ErrComplaint = fmt.Errorf("%w: upheld share complaint", taxonomy.ErrSetupFailed)
	// ErrWithheld: a receiver reported no deal and the dealer never
	// justified by revealing that share. Dealer disqualified.
	ErrWithheld = fmt.Errorf("%w: deal withheld", taxonomy.ErrSetupFailed)
	// ErrEquivocation: a member provably sent conflicting messages —
	// a dealer whose votes carry more than one commitment hash, or a
	// voter with conflicting votes about one dealer. Disqualified.
	ErrEquivocation = fmt.Errorf("%w: equivocation", taxonomy.ErrSetupFailed)
	// ErrJustification: the dealer answered a complaint, but the
	// revealed share fails verification (or the justification carries
	// the wrong commitments). Dealer disqualified.
	ErrJustification = fmt.Errorf("%w: invalid justification", taxonomy.ErrSetupFailed)
	// ErrFalseComplaint: a complaint was refuted by a valid public
	// justification. The complainer is blamed; the dealer (and the
	// complainer's own dealing, which verified) stay qualified.
	ErrFalseComplaint = fmt.Errorf("%w: refuted complaint", taxonomy.ErrSetupFailed)
	// ErrBinding: a resharing dealing is not bound to the dealer's old
	// share — its degree-0 commitment differs from λ_d·(old share
	// image). Dealer disqualified.
	ErrBinding = fmt.Errorf("%w: reshare dealing unbound to old share", taxonomy.ErrSetupFailed)
	// ErrAborted: a resharing epoch lost a subset dealer (the fixed λ
	// make every one load-bearing). Re-run with a different subset.
	ErrAborted = fmt.Errorf("%w: resharing aborted", taxonomy.ErrSetupFailed)
)

// Roles a Fault can blame.
const (
	RoleDealer = "dealer"
	RoleMember = "member"
)

// Fault attributes one protocol violation to one participant: a dealer
// index (RoleDealer) or a receiver index (RoleMember — in a fresh DKG
// the two index spaces coincide). The honest nodes of one ceremony all
// derive the identical fault list.
type Fault struct {
	Role  string
	Index int
	Err   error // one of the sentinel classes above
}

func (f Fault) String() string {
	return fmt.Sprintf("%s %d: %v", f.Role, f.Index, f.Err)
}

// Vote codes a receiver can cast about a dealer.
const (
	VoteOK        = byte(0) // share verified; CommitHash names the commitments
	VoteComplaint = byte(1) // deal arrived but the share failed verification
	VoteMissing   = byte(2) // no deal arrived; CommitHash is nil
)

// Vote is one receiver's verdict on one dealer's deal.
type Vote struct {
	Dealer     int
	Code       byte
	CommitHash []byte
}

// DealMsg is one dealer's message to one receiver: the public Feldman
// commitments plus that receiver's private share. Receivers never relay
// the share.
type DealMsg struct {
	Session     uint64
	Dealer      int
	Commitments []*ecc.Point
	Share       *ecc.Scalar
}

// ResponseMsg is one receiver's broadcast verdict on every dealer.
type ResponseMsg struct {
	Session uint64
	Voter   int
	Votes   []Vote
}

// JustShare is one publicly revealed share inside a justification.
type JustShare struct {
	Member int
	Share  *ecc.Scalar
}

// JustificationMsg is a dealer's public answer to complaints: its
// commitments (so even a receiver that never saw the deal can verify)
// and the disputed shares.
type JustificationMsg struct {
	Session     uint64
	Dealer      int
	Commitments []*ecc.Point
	Shares      []JustShare
}

// CommitHash canonically hashes a dealer's commitment vector; votes and
// equivocation detection compare these.
func CommitHash(dealer int, commitments []*ecc.Point) []byte {
	h := sha3.New256()
	h.Write([]byte("atom/dkg-commit/v1"))
	var d [8]byte
	binary.BigEndian.PutUint64(d[:], uint64(dealer))
	h.Write(d[:])
	for _, c := range commitments {
		h.Write(c.Bytes())
	}
	return h.Sum(nil)
}

// Result is the ceremony outcome from one node's perspective.
type Result struct {
	// Key is this node's share of the new group key; nil for a
	// dealer-only participant (a member rotating out during resharing).
	Key *dvss.GroupKey
	// QUAL lists the qualified dealer indices, ascending. The group
	// secret is the sum of exactly these dealers' secrets.
	QUAL []int
	// Faults attributes every detected violation, sorted. Identical at
	// every honest node.
	Faults []Fault
}

// tally accumulates one node's view of the ceremony: the deals it
// received directly, and the echoed union of responses and
// justifications. It is not concurrency-safe; the node actor owns it.
type tally struct {
	threshold int
	size      int   // receiver count of the (new) group
	dealers   []int // expected dealer indices, ascending

	deals map[int]*DealMsg                // dealer -> deal received by this node
	votes map[int]map[int]map[string]Vote // voter -> dealer -> hash-key -> vote
	justs map[int]*JustificationMsg       // dealer -> first-seen justification

	// expectedC0 is the resharing binding: dealer -> required degree-0
	// commitment. Nil for a fresh DKG.
	expectedC0 map[int]*ecc.Point
	// requireAll aborts (ErrAborted) unless every dealer qualifies.
	requireAll bool
}

func newTally(dealers []int, threshold, size int) *tally {
	ds := append([]int(nil), dealers...)
	sort.Ints(ds)
	return &tally{
		threshold: threshold,
		size:      size,
		dealers:   ds,
		deals:     make(map[int]*DealMsg),
		votes:     make(map[int]map[int]map[string]Vote),
		justs:     make(map[int]*JustificationMsg),
	}
}

func (ta *tally) isDealer(d int) bool {
	i := sort.SearchInts(ta.dealers, d)
	return i < len(ta.dealers) && ta.dealers[i] == d
}

// addDeal records a deal addressed to this node. Structural rejects are
// silent (they surface as missing/complaint votes).
func (ta *tally) addDeal(m *DealMsg) {
	if m == nil || !ta.isDealer(m.Dealer) || ta.deals[m.Dealer] != nil {
		return
	}
	ta.deals[m.Dealer] = m
}

// addResponse merges a (possibly echoed) response into the per-voter
// vote union. Conflicting votes accumulate; finalize attributes them.
func (ta *tally) addResponse(m *ResponseMsg) {
	if m == nil || m.Voter < 1 || m.Voter > ta.size {
		return
	}
	per := ta.votes[m.Voter]
	if per == nil {
		per = make(map[int]map[string]Vote)
		ta.votes[m.Voter] = per
	}
	for _, v := range m.Votes {
		if !ta.isDealer(v.Dealer) {
			continue
		}
		if v.Code > VoteMissing {
			continue
		}
		set := per[v.Dealer]
		if set == nil {
			set = make(map[string]Vote)
			per[v.Dealer] = set
		}
		key := fmt.Sprintf("%d|%x", v.Code, v.CommitHash)
		if _, dup := set[key]; !dup {
			set[key] = v
		}
	}
}

// addJustification records a dealer's first justification. A dealer
// that equivocates its justification is already doomed by the
// commitment-hash rules, so first-seen is sufficient.
func (ta *tally) addJustification(m *JustificationMsg) {
	if m == nil || !ta.isDealer(m.Dealer) || ta.justs[m.Dealer] != nil {
		return
	}
	ta.justs[m.Dealer] = m
}

// myVotes derives this node's response from the deals it received:
// verify every dealer's share (and, when resharing, the binding to the
// old share image) and vote accordingly.
func (ta *tally) myVotes(index int) []Vote {
	votes := make([]Vote, 0, len(ta.dealers))
	for _, d := range ta.dealers {
		deal := ta.deals[d]
		switch {
		case deal == nil:
			votes = append(votes, Vote{Dealer: d, Code: VoteMissing})
		case len(deal.Commitments) != ta.threshold,
			deal.Share == nil,
			!ta.bindingOK(d, deal.Commitments),
			dvss.VerifyShare(deal.Commitments, index, deal.Share) != nil:
			votes = append(votes, Vote{Dealer: d, Code: VoteComplaint, CommitHash: CommitHash(d, deal.Commitments)})
		default:
			votes = append(votes, Vote{Dealer: d, Code: VoteOK, CommitHash: CommitHash(d, deal.Commitments)})
		}
	}
	return votes
}

// bindingOK enforces the resharing binding on a commitment vector (true
// for fresh DKGs and unknown dealers).
func (ta *tally) bindingOK(dealer int, commitments []*ecc.Point) bool {
	if ta.expectedC0 == nil {
		return true
	}
	want := ta.expectedC0[dealer]
	if want == nil || len(commitments) == 0 || commitments[0] == nil {
		return false
	}
	return commitments[0].Equal(want)
}

// implicated returns, per dealer, the receiver indices whose union-vote
// demands a justification (complaint or missing), after voter
// equivocation has been folded in. Used by dealers to know what to
// justify; finalize recomputes it.
func (ta *tally) implicated() map[int][]int {
	out := make(map[int][]int)
	for _, d := range ta.dealers {
		var members []int
		for voter := 1; voter <= ta.size; voter++ {
			set := ta.votes[voter][d]
			if len(set) == 0 {
				continue
			}
			needJust := len(set) > 1 // conflicting votes: force justification
			for _, v := range set {
				if v.Code != VoteOK {
					needJust = true
				}
			}
			if needJust {
				members = append(members, voter)
			}
		}
		if len(members) > 0 {
			sort.Ints(members)
			out[d] = members
		}
	}
	return out
}

// anyImplicated reports whether a justification phase is needed at all.
func (ta *tally) anyImplicated() bool { return len(ta.implicated()) > 0 }

// consensusHash returns the unique commitment hash voted for dealer d,
// or nil with ok=false when votes carry conflicting hashes (dealer
// equivocation) and ok=true with nil hash when no vote names one.
func (ta *tally) consensusHash(d int) ([]byte, bool) {
	var hash []byte
	for voter := 1; voter <= ta.size; voter++ {
		for _, v := range ta.votes[voter][d] {
			if v.CommitHash == nil {
				continue
			}
			if hash == nil {
				hash = v.CommitHash
			} else if !bytes.Equal(hash, v.CommitHash) {
				return nil, false
			}
		}
	}
	return hash, true
}

// finalize computes the qualified set, the fault list, and (for a
// receiver) the node's group key. index is this node's receiver index,
// 0 for a dealer-only participant.
func (ta *tally) finalize(index, minQual int) (*Result, error) {
	res := &Result{}
	faultSet := make(map[string]Fault)
	addFault := func(role string, idx int, err error) {
		faultSet[fmt.Sprintf("%s/%d/%v", role, idx, err)] = Fault{Role: role, Index: idx, Err: err}
	}

	// Voter equivocation: conflicting votes about any one dealer blame
	// the voter and leave the strictest interpretation (a complaint that
	// a justification can still clear).
	type pair struct{ dealer, member int }
	type implication struct {
		code    byte
		genuine bool // a single uncontradicted vote, eligible for ErrFalseComplaint
	}
	needJust := make(map[pair]implication)
	for voter := 1; voter <= ta.size; voter++ {
		for d, set := range ta.votes[voter] {
			if len(set) > 1 {
				addFault(RoleMember, voter, ErrEquivocation)
			}
			worst := byte(VoteOK)
			for _, v := range set {
				if v.Code > worst {
					worst = v.Code
				}
			}
			if len(set) > 1 && worst == VoteOK {
				// Conflicting hashes, both claiming ok: handled by the
				// dealer consensus-hash rule; also force justification.
				worst = VoteComplaint
			}
			if worst != VoteOK {
				needJust[pair{d, voter}] = implication{code: worst, genuine: len(set) == 1}
			}
		}
	}

	disq := make(map[int]bool)
	for _, d := range ta.dealers {
		hash, consistent := ta.consensusHash(d)
		if !consistent {
			addFault(RoleDealer, d, ErrEquivocation)
			disq[d] = true
			continue
		}
		if ta.expectedC0 != nil {
			if comms := ta.commitmentsFor(d, hash); comms != nil && !ta.bindingOK(d, comms) {
				addFault(RoleDealer, d, ErrBinding)
				disq[d] = true
				continue
			}
		}
		just := ta.justs[d]
		justValid := false
		if just != nil {
			justHash := CommitHash(d, just.Commitments)
			justValid = len(just.Commitments) == ta.threshold &&
				ta.bindingOK(d, just.Commitments) &&
				(hash == nil || bytes.Equal(hash, justHash))
		}
		justShare := func(member int) *ecc.Scalar {
			if just == nil || !justValid {
				return nil
			}
			for _, js := range just.Shares {
				if js.Member == member && js.Share != nil &&
					dvss.VerifyShare(just.Commitments, member, js.Share) == nil {
					return js.Share
				}
			}
			return nil
		}
		anyVotes := false
		for voter := 1; voter <= ta.size; voter++ {
			if len(ta.votes[voter][d]) > 0 {
				anyVotes = true
			}
		}
		if !anyVotes {
			// Nobody voted about this dealer — no receiver responded at
			// all about it; treat as withheld.
			addFault(RoleDealer, d, ErrWithheld)
			disq[d] = true
			continue
		}
		for voter := 1; voter <= ta.size; voter++ {
			imp, implicated := needJust[pair{d, voter}]
			if !implicated {
				continue
			}
			if justShare(voter) != nil {
				if imp.code == VoteComplaint && imp.genuine {
					// The public reveal verified: the complaint was false.
					// (An equivocated complaint is already blamed as
					// equivocation, not double-counted here.)
					addFault(RoleMember, voter, ErrFalseComplaint)
				}
				continue
			}
			disq[d] = true
			switch {
			case just != nil:
				// A justification exists but did not clear this member:
				// wrong commitments, unverifiable share, or the member
				// simply skipped.
				addFault(RoleDealer, d, ErrJustification)
			case imp.code == VoteMissing:
				addFault(RoleDealer, d, ErrWithheld)
			default:
				addFault(RoleDealer, d, ErrComplaint)
			}
		}
	}

	// Disqualify the dealing of any member blamed for equivocation (in
	// a fresh DKG the voter is a dealer too; in resharing this is a
	// no-op unless a rotating member misbehaved in both roles).
	for _, f := range faultSet {
		if f.Role == RoleMember && errors.Is(f.Err, ErrEquivocation) && ta.isDealer(f.Index) {
			if !disq[f.Index] {
				disq[f.Index] = true
				addFault(RoleDealer, f.Index, ErrEquivocation)
			}
		}
	}

	for _, d := range ta.dealers {
		if !disq[d] {
			res.QUAL = append(res.QUAL, d)
		}
	}
	res.Faults = sortedFaults(faultSet)

	if ta.requireAll && len(res.QUAL) != len(ta.dealers) {
		return res, fmt.Errorf("%w: %d of %d subset dealers qualified (%v)",
			ErrAborted, len(res.QUAL), len(ta.dealers), res.Faults)
	}
	if len(res.QUAL) < minQual {
		return res, fmt.Errorf("%w: %d qualified, need %d (%v)",
			taxonomy.ErrDKGInsufficient, len(res.QUAL), minQual, res.Faults)
	}

	if index > 0 {
		key, err := ta.buildKey(index, res.QUAL)
		if err != nil {
			return res, err
		}
		res.Key = key
	}
	return res, nil
}

// commitmentsFor returns the commitment vector matching the consensus
// hash for dealer d: the node's own deal if it matches, else the
// justification's.
func (ta *tally) commitmentsFor(d int, hash []byte) []*ecc.Point {
	if deal := ta.deals[d]; deal != nil {
		if hash == nil || bytes.Equal(hash, CommitHash(d, deal.Commitments)) {
			return deal.Commitments
		}
	}
	if just := ta.justs[d]; just != nil {
		if hash == nil || bytes.Equal(hash, CommitHash(d, just.Commitments)) {
			return just.Commitments
		}
	}
	return nil
}

// shareFrom returns this node's authoritative share from dealer d: the
// directly dealt share when it verifies, else the publicly justified
// one.
func (ta *tally) shareFrom(d, index int, commitments []*ecc.Point) *ecc.Scalar {
	if deal := ta.deals[d]; deal != nil && deal.Share != nil &&
		bytes.Equal(CommitHash(d, deal.Commitments), CommitHash(d, commitments)) &&
		dvss.VerifyShare(commitments, index, deal.Share) == nil {
		return deal.Share
	}
	if just := ta.justs[d]; just != nil {
		for _, js := range just.Shares {
			if js.Member == index && js.Share != nil &&
				dvss.VerifyShare(commitments, index, js.Share) == nil {
				return js.Share
			}
		}
	}
	return nil
}

// buildKey aggregates the qualified dealings into this node's group
// key: commitments coefficient-wise, shares member-wise, exactly as
// dvss.AggregateDealings but restricted to QUAL and tolerant of shares
// recovered from justifications.
func (ta *tally) buildKey(index int, qual []int) (*dvss.GroupKey, error) {
	if len(qual) == 0 {
		return nil, fmt.Errorf("%w: empty qualified set", taxonomy.ErrDKGInsufficient)
	}
	aggComms := make([]*ecc.Point, ta.threshold)
	for j := range aggComms {
		aggComms[j] = ecc.Identity()
	}
	share := ecc.NewScalar(0)
	for _, d := range qual {
		hash, _ := ta.consensusHash(d)
		comms := ta.commitmentsFor(d, hash)
		if comms == nil || len(comms) != ta.threshold {
			return nil, fmt.Errorf("%w: no commitments for qualified dealer %d", taxonomy.ErrSetupFailed, d)
		}
		s := ta.shareFrom(d, index, comms)
		if s == nil {
			return nil, fmt.Errorf("%w: no verified share from qualified dealer %d", taxonomy.ErrSetupFailed, d)
		}
		for j := range aggComms {
			aggComms[j] = aggComms[j].Add(comms[j])
		}
		share = share.Add(s)
	}
	if err := dvss.VerifyShare(aggComms, index, share); err != nil {
		return nil, fmt.Errorf("%w: aggregated share inconsistent: %v", taxonomy.ErrSetupFailed, err)
	}
	return &dvss.GroupKey{
		PK:          aggComms[0].Clone(),
		Share:       share,
		Index:       index,
		Threshold:   ta.threshold,
		Size:        ta.size,
		Commitments: aggComms,
	}, nil
}

func sortedFaults(set map[string]Fault) []Fault {
	out := make([]Fault, 0, len(set))
	for _, f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Err.Error() < out[j].Err.Error()
	})
	return out
}
