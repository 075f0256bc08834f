package dkg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/parallel"
	"atom/internal/taxonomy"
)

const testWindow = 250 * time.Millisecond

func testOpts(seed int64) Opts {
	return Opts{
		Window: testWindow,
		Rand:   parallel.LockedReader(rand.New(rand.NewSource(seed))),
	}
}

// honestSeats filters the seats whose member behaved honestly in the
// scenario (everyone not named byzantine).
func honestSeats(seats []*Seat, byzantine ...int) []*Seat {
	bad := make(map[int]bool)
	for _, b := range byzantine {
		bad[b] = true
	}
	var out []*Seat
	for _, s := range seats {
		if !bad[s.Index] {
			out = append(out, s)
		}
	}
	return out
}

// assertAgreement checks that every honest seat derived the same QUAL,
// the same fault list, and shares of one working group key, and returns
// that key set.
func assertAgreement(t *testing.T, seats []*Seat) []*dvss.GroupKey {
	t.Helper()
	var keys []*dvss.GroupKey
	var qual string
	var faults string
	for _, s := range seats {
		if s.Err != nil {
			t.Fatalf("honest member %d failed: %v", s.Index, s.Err)
		}
		q := fmt.Sprint(s.Result.QUAL)
		f := fmt.Sprint(s.Result.Faults)
		if qual == "" {
			qual, faults = q, f
		}
		if q != qual || f != faults {
			t.Fatalf("member %d diverged: QUAL %s vs %s, faults %s vs %s", s.Index, q, qual, f, faults)
		}
		if s.Index == 0 {
			// Dealer-only seat (member rotating out): agrees on the
			// outcome but holds no share of the new key.
			if s.Result.Key != nil {
				t.Fatalf("departing dealer seat unexpectedly holds a key")
			}
			continue
		}
		if s.Result.Key == nil {
			t.Fatalf("honest member %d has no key", s.Index)
		}
		keys = append(keys, s.Result.Key)
	}
	for _, k := range keys[1:] {
		if !k.PK.Equal(keys[0].PK) {
			t.Fatal("honest members derived different group public keys")
		}
	}
	return keys
}

// assertWorkingKey reconstructs the group secret from threshold shares
// and checks it opens the group public key — the "honest members still
// derive a working group key" assertion of the matrix.
func assertWorkingKey(t *testing.T, keys []*dvss.GroupKey) {
	t.Helper()
	k0 := keys[0]
	if len(keys) < k0.Threshold {
		t.Fatalf("only %d keys for threshold %d", len(keys), k0.Threshold)
	}
	idx := make([]int, k0.Threshold)
	shares := make([]*ecc.Scalar, k0.Threshold)
	for i := 0; i < k0.Threshold; i++ {
		idx[i] = keys[i].Index
		shares[i] = keys[i].Share
	}
	secret, err := dvss.Reconstruct(idx, shares)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if !ecc.BaseMul(secret).Equal(k0.PK) {
		t.Fatal("reconstructed group secret does not open the group public key")
	}
	for _, k := range keys {
		if err := dvss.VerifyShare(k.Commitments, k.Index, k.Share); err != nil {
			t.Fatalf("member %d share fails against aggregated commitments: %v", k.Index, err)
		}
	}
}

func TestCeremonyAllHonest(t *testing.T) {
	seats, err := Ceremony(context.Background(), 5, 3, testOpts(1))
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	keys := assertAgreement(t, seats)
	assertWorkingKey(t, keys)
	if q := fmt.Sprint(seats[0].Result.QUAL); q != "[1 2 3 4 5]" {
		t.Fatalf("QUAL = %s, want all members", q)
	}
	if len(seats[0].Result.Faults) != 0 {
		t.Fatalf("honest ceremony produced faults: %v", seats[0].Result.Faults)
	}
}

// TestByzantineMatrix is the setup-phase adversarial table: every case
// names the byzantine members, their behavior via Hooks, the exact
// qualified set every honest member must compute, and the exact typed
// blame.
func TestByzantineMatrix(t *testing.T) {
	garbage := ecc.NewScalar(424242)
	cases := []struct {
		name      string
		n, t      int
		byzantine []int
		hooks     func() map[int]*Hooks
		wantQUAL  string
		wantFault []Fault
		wantErr   error // expected per-honest-seat error; nil = success
	}{
		{
			// Dealer 2 sends member 4 a share that fails verification and
			// never justifies: upheld complaint, dealer out.
			name: "dishonest dealer: bad share, no justification",
			n:    5, t: 3, byzantine: []int{2},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{2: {
					OnDeal: func(to int, m *DealMsg) bool {
						if to == 4 {
							m.Share = garbage.Clone()
						}
						return true
					},
					OnJustify: func(string, *JustificationMsg) bool { return false },
				}}
			},
			wantQUAL:  "[1 3 4 5]",
			wantFault: []Fault{{Role: RoleDealer, Index: 2, Err: ErrComplaint}},
		},
		{
			// Dealer 3 sends different commitment vectors to different
			// members: the vote hashes conflict, equivocation, dealer out.
			name: "dishonest dealer: equivocating commitments",
			n:    5, t: 3, byzantine: []int{3},
			hooks: func() map[int]*Hooks {
				alt := []*ecc.Point{ecc.BaseMul(ecc.NewScalar(7)), ecc.BaseMul(ecc.NewScalar(8)), ecc.BaseMul(ecc.NewScalar(9))}
				return map[int]*Hooks{3: {
					OnDeal: func(to int, m *DealMsg) bool {
						if to >= 4 {
							m.Commitments = clonePoints(alt)
							m.Share = garbage.Clone()
						}
						return true
					},
					OnJustify: func(string, *JustificationMsg) bool { return false },
				}}
			},
			wantQUAL:  "[1 2 4 5]",
			wantFault: []Fault{{Role: RoleDealer, Index: 3, Err: ErrEquivocation}},
		},
		{
			// Dealer 1 withholds member 5's deal entirely and never
			// justifies the missing vote: withheld, dealer out.
			name: "dishonest dealer: withheld deal",
			n:    5, t: 3, byzantine: []int{1},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{1: {
					OnDeal:    func(to int, m *DealMsg) bool { return to != 5 },
					OnJustify: func(string, *JustificationMsg) bool { return false },
				}}
			},
			wantQUAL:  "[2 3 4 5]",
			wantFault: []Fault{{Role: RoleDealer, Index: 1, Err: ErrWithheld}},
		},
		{
			// Member 4 votes ok to some peers and complaint to others
			// about honest dealer 2: voter equivocation. The voter is
			// blamed (and its own dealing dropped); dealer 2 publicly
			// justifies and stays qualified.
			name: "equivocating responses",
			n:    5, t: 3, byzantine: []int{4},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{4: {
					OnResponse: func(to string, m *ResponseMsg) bool {
						if to == "dkg-1" || to == "dkg-2" {
							for i := range m.Votes {
								if m.Votes[i].Dealer == 2 {
									m.Votes[i].Code = VoteComplaint
								}
							}
						}
						return true
					},
				}}
			},
			wantQUAL: "[1 2 3 5]",
			wantFault: []Fault{
				{Role: RoleDealer, Index: 4, Err: ErrEquivocation},
				{Role: RoleMember, Index: 4, Err: ErrEquivocation},
			},
		},
		{
			// Member 5 withholds its response from everyone: its votes
			// are simply absent; nobody is blamed and all dealings stand
			// (the union over the remaining voters covers every dealer).
			name: "withheld response",
			n:    5, t: 3, byzantine: []int{5},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{5: {
					OnResponse: func(string, *ResponseMsg) bool { return false },
				}}
			},
			wantQUAL:  "[1 2 3 4 5]",
			wantFault: nil,
		},
		{
			// Member 3 complains about honest dealer 5; the dealer's
			// public justification verifies, refuting it: false
			// complaint, dealer stays, complainer blamed.
			name: "false complaint refuted by justification",
			n:    5, t: 3, byzantine: []int{3},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{3: {
					OnResponse: func(to string, m *ResponseMsg) bool {
						for i := range m.Votes {
							if m.Votes[i].Dealer == 5 {
								m.Votes[i].Code = VoteComplaint
							}
						}
						return true
					},
				}}
			},
			wantQUAL:  "[1 2 3 4 5]",
			wantFault: []Fault{{Role: RoleMember, Index: 3, Err: ErrFalseComplaint}},
		},
		{
			// Dealer 2 sends member 4 a bad share and then "justifies"
			// with another bad share: invalid justification, dealer out.
			name: "invalid justification",
			n:    5, t: 3, byzantine: []int{2},
			hooks: func() map[int]*Hooks {
				return map[int]*Hooks{2: {
					OnDeal: func(to int, m *DealMsg) bool {
						if to == 4 {
							m.Share = garbage.Clone()
						}
						return true
					},
					OnJustify: func(_ string, m *JustificationMsg) bool {
						for i := range m.Shares {
							m.Shares[i].Share = garbage.Clone()
						}
						return true
					},
				}}
			},
			wantQUAL:  "[1 3 4 5]",
			wantFault: []Fault{{Role: RoleDealer, Index: 2, Err: ErrJustification}},
		},
		{
			// Three of five members never deal: only 2 qualified dealers
			// remain, below MinQual (= threshold 3): typed abort, blame
			// on the three withholders.
			name: "sub-threshold participation",
			n:    5, t: 3, byzantine: []int{3, 4, 5},
			hooks: func() map[int]*Hooks {
				die := &Hooks{
					OnDeal:     func(int, *DealMsg) bool { return false },
					OnResponse: func(string, *ResponseMsg) bool { return false },
					OnJustify:  func(string, *JustificationMsg) bool { return false },
				}
				return map[int]*Hooks{3: die, 4: die, 5: die}
			},
			wantQUAL: "[1 2]",
			wantFault: []Fault{
				{Role: RoleDealer, Index: 3, Err: ErrWithheld},
				{Role: RoleDealer, Index: 4, Err: ErrWithheld},
				{Role: RoleDealer, Index: 5, Err: ErrWithheld},
			},
			wantErr: taxonomy.ErrDKGInsufficient,
		},
	}

	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := testOpts(int64(100 + ci))
			opts.Hooks = tc.hooks()
			seats, err := Ceremony(context.Background(), tc.n, tc.t, opts)
			if err != nil {
				t.Fatalf("Ceremony: %v", err)
			}
			honest := honestSeats(seats, tc.byzantine...)
			if tc.wantErr != nil {
				for _, s := range honest {
					if !errors.Is(s.Err, tc.wantErr) {
						t.Fatalf("member %d: err %v, want %v", s.Index, s.Err, tc.wantErr)
					}
					if !errors.Is(s.Err, taxonomy.ErrSetupFailed) {
						t.Fatalf("member %d: %v does not match taxonomy.ErrSetupFailed", s.Index, s.Err)
					}
					if q := fmt.Sprint(s.Result.QUAL); q != tc.wantQUAL {
						t.Fatalf("member %d QUAL = %s, want %s", s.Index, q, tc.wantQUAL)
					}
					assertFaults(t, s.Result.Faults, tc.wantFault)
				}
				return
			}
			keys := assertAgreement(t, honest)
			assertWorkingKey(t, keys)
			if q := fmt.Sprint(honest[0].Result.QUAL); q != tc.wantQUAL {
				t.Fatalf("QUAL = %s, want %s", q, tc.wantQUAL)
			}
			assertFaults(t, honest[0].Result.Faults, tc.wantFault)
		})
	}
}

func assertFaults(t *testing.T, got, want []Fault) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("faults %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Role != want[i].Role || got[i].Index != want[i].Index || !errors.Is(got[i].Err, want[i].Err) {
			t.Fatalf("fault[%d] = %v, want %s %d %v", i, got[i], want[i].Role, want[i].Index, want[i].Err)
		}
		if !errors.Is(got[i].Err, taxonomy.ErrSetupFailed) {
			t.Fatalf("fault[%d] %v does not match taxonomy.ErrSetupFailed", i, got[i].Err)
		}
	}
}

// TestCeremonyUnderChurn kills one member mid-deal (after 2 of 5 deal
// sends): the dead member's partial dealing is disqualified as withheld
// and the surviving four complete a working key.
func TestCeremonyUnderChurn(t *testing.T) {
	opts := testOpts(7)
	opts.Hooks = map[int]*Hooks{3: {DieAfterDeals: 2}}
	seats, err := Ceremony(context.Background(), 5, 3, opts)
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	honest := honestSeats(seats, 3)
	if !errors.Is(seats[2].Err, taxonomy.ErrSetupFailed) {
		t.Fatalf("dead member returned %v", seats[2].Err)
	}
	keys := assertAgreement(t, honest)
	assertWorkingKey(t, keys)
	if q := fmt.Sprint(honest[0].Result.QUAL); q != "[1 2 4 5]" {
		t.Fatalf("QUAL = %s, want [1 2 4 5]", q)
	}
	assertFaults(t, honest[0].Result.Faults, []Fault{{Role: RoleDealer, Index: 3, Err: ErrWithheld}})
}

// TestReshareRotation is the acceptance-criteria epoch: member 5 leaves,
// a fresh member joins, and the group public key is unchanged.
func TestReshareRotation(t *testing.T) {
	seats, err := Ceremony(context.Background(), 5, 3, testOpts(11))
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	oldKeys := assertAgreement(t, seats)
	oldPK := oldKeys[0].PK

	// Members 1-4 stay (5 rotates out, one joins as new index 5);
	// dealers are the subset {1, 2, 4}.
	reseats, err := ReshareCeremony(context.Background(), Reshare{
		Keys:         oldKeys,
		Dealers:      []int{1, 2, 4},
		NewSize:      5,
		NewThreshold: 3,
		Stay:         map[int]int{1: 1, 2: 2, 3: 3, 4: 4},
	}, testOpts(12))
	if err != nil {
		t.Fatalf("ReshareCeremony: %v", err)
	}
	newKeys := assertAgreement(t, reseats)
	if !newKeys[0].PK.Equal(oldPK) {
		t.Fatal("resharing changed the group public key")
	}
	assertWorkingKey(t, newKeys)
	// The new shares are a genuinely fresh sharing: the staying members'
	// share values changed.
	for _, nk := range newKeys {
		for _, ok := range oldKeys {
			if nk.Index == ok.Index && nk.Share.Equal(ok.Share) {
				t.Fatalf("member %d share unchanged across resharing", nk.Index)
			}
		}
	}
	// The departed member's old share is now useless: it no longer
	// verifies against the new commitments.
	if err := dvss.VerifyShare(newKeys[0].Commitments, 5, oldKeys[4].Share); err == nil {
		t.Fatal("departed member's old share verifies against the new sharing")
	}
}

// TestReshareBindingRejected: a subset dealer deals a value not bound
// to its old share; every receiver rejects the binding and the epoch
// aborts with blame — the fixed λ make the subset all-or-nothing.
func TestReshareUnboundDealerAborts(t *testing.T) {
	seats, err := Ceremony(context.Background(), 5, 3, testOpts(21))
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	oldKeys := assertAgreement(t, seats)

	// Dealer 2 substitutes a fresh secret (breaking the λ·oldShare
	// binding) and cannot justify its way out.
	rogue := oldKeys[1]
	rogueKeys := []*dvss.GroupKey{oldKeys[0], {
		PK: rogue.PK, Share: ecc.NewScalar(31337), Index: 2,
		Threshold: rogue.Threshold, Size: rogue.Size, Commitments: rogue.Commitments,
	}, oldKeys[2], oldKeys[3], oldKeys[4]}

	reseats, err := ReshareCeremony(context.Background(), Reshare{
		Keys:         rogueKeys,
		Dealers:      []int{1, 2, 3},
		NewSize:      5,
		NewThreshold: 3,
		Stay:         map[int]int{1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
	}, testOpts(22))
	if err != nil {
		t.Fatalf("ReshareCeremony: %v", err)
	}
	for _, s := range honestSeats(reseats, 2) {
		if !errors.Is(s.Err, ErrAborted) {
			t.Fatalf("member %d: err %v, want ErrAborted", s.Index, s.Err)
		}
		assertFaults(t, s.Result.Faults, []Fault{{Role: RoleDealer, Index: 2, Err: ErrBinding}})
	}
}

// TestReshareShrinkAndGrow exercises threshold changes: 5-of-3 down to
// 4-of-2 and back up to 6-of-4, PK invariant throughout.
func TestReshareShrinkAndGrow(t *testing.T) {
	seats, err := Ceremony(context.Background(), 5, 3, testOpts(31))
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	keys := assertAgreement(t, seats)
	pk := keys[0].PK

	down, err := ReshareCeremony(context.Background(), Reshare{
		Keys: keys, Dealers: []int{2, 3, 5}, NewSize: 4, NewThreshold: 2,
		Stay: map[int]int{1: 1, 2: 2, 3: 3, 4: 4},
	}, testOpts(32))
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	downKeys := assertAgreement(t, down)
	if !downKeys[0].PK.Equal(pk) || downKeys[0].Threshold != 2 {
		t.Fatalf("shrink changed PK or threshold (t=%d)", downKeys[0].Threshold)
	}
	assertWorkingKey(t, downKeys)

	up, err := ReshareCeremony(context.Background(), Reshare{
		Keys: downKeys, Dealers: []int{1, 4}, NewSize: 6, NewThreshold: 4,
		Stay: map[int]int{1: 1, 2: 2, 3: 3, 4: 4},
	}, testOpts(33))
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	upKeys := assertAgreement(t, up)
	if !upKeys[0].PK.Equal(pk) || upKeys[0].Threshold != 4 {
		t.Fatalf("grow changed PK or threshold (t=%d)", upKeys[0].Threshold)
	}
	assertWorkingKey(t, upKeys)
}

// TestDKGKeyDrivesBeaconStyleOps sanity-checks that a DKG-produced key
// behaves exactly like a dealer-produced one for threshold operations.
func TestDKGKeyMatchesDealerSemantics(t *testing.T) {
	seats, err := Ceremony(context.Background(), 4, 2, testOpts(41))
	if err != nil {
		t.Fatalf("Ceremony: %v", err)
	}
	keys := assertAgreement(t, seats)
	subset := []int{1, 3}
	sum := ecc.NewScalar(0)
	for _, i := range subset {
		eff, pub, err := keys[i-1].EffectiveKey(subset)
		if err != nil {
			t.Fatalf("EffectiveKey(%d): %v", i, err)
		}
		if !ecc.BaseMul(eff).Equal(pub) {
			t.Fatalf("member %d effective key image mismatch", i)
		}
		sum = sum.Add(eff)
	}
	if !ecc.BaseMul(sum).Equal(keys[0].PK) {
		t.Fatal("threshold subset's effective keys do not sum to the group key")
	}
}
