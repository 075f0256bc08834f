package dkg

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// This file holds the in-process ceremony drivers (every participant on
// one MemNetwork — what the simulator, the deployment setup path, and
// the test matrix use) and the resharing arithmetic that atomd's
// distributed epochs share.

// ReshareLambda returns dealer d's fixed Lagrange coefficient for the
// announced dealer subset. Because Σ_{d∈subset} λ_d·share_d equals the
// group secret, dealing λ_d·share_d re-shares the same key.
func ReshareLambda(dealers []int, d int) (*ecc.Scalar, error) {
	return dvss.LagrangeCoeff(dealers, d)
}

// ReshareSecret computes the value an old member deals during a
// resharing epoch: λ_d·oldShare for the announced subset.
func ReshareSecret(key *dvss.GroupKey, dealers []int) (*ecc.Scalar, error) {
	lambda, err := ReshareLambda(dealers, key.Index)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, err)
	}
	return lambda.Mul(key.Share), nil
}

// ReshareBinding computes, from the old group's public commitments
// alone, the degree-0 commitment each subset dealer's resharing dealing
// must open with: λ_d·(old share image of d). Receivers — including
// fresh joiners who hold no old share — verify every dealing against
// this map, which is what binds the new sharing to the old secret.
func ReshareBinding(oldCommitments []*ecc.Point, dealers []int) (map[int]*ecc.Point, error) {
	out := make(map[int]*ecc.Point, len(dealers))
	for _, d := range dealers {
		lambda, err := ReshareLambda(dealers, d)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, err)
		}
		out[d] = dvss.ShareCommitment(oldCommitments, d).Mul(lambda)
	}
	return out, nil
}

// Opts tunes an in-process ceremony. The zero value is honest defaults.
type Opts struct {
	Window  time.Duration
	Session uint64
	MinQual int            // fresh DKG only; 0 = threshold
	Hooks   map[int]*Hooks // per participant (fresh: member index; reshare: dealer index, or negative new index for receiver-only nodes)
	Rand    io.Reader      // shared entropy source; nil = crypto/rand
	Net     *transport.MemNetwork
}

// Seat is one participant's outcome of an in-process ceremony.
type Seat struct {
	Index  int // receiver index; 0 for dealer-only seats
	Result *Result
	Err    error
}

// Ceremony runs a fresh n-member joint-Feldman DKG with threshold t,
// every member a node on one in-memory network, and returns each
// member's seat in index order. Honest members' results agree; a seat's
// Err reports that member's view of an abort (ErrDKGInsufficient et al).
func Ceremony(ctx context.Context, n, t int, opts Opts) ([]*Seat, error) {
	if opts.Net == nil {
		opts.Net = transport.NewMemNetwork(nil, 0)
	}
	receivers := make(map[int]string, n)
	for i := 1; i <= n; i++ {
		receivers[i] = fmt.Sprintf("dkg-%d", i)
	}
	cfgs := make([]Config, 0, n)
	for i := 1; i <= n; i++ {
		cfgs = append(cfgs, Config{
			Session:     opts.Session,
			Index:       i,
			DealerIndex: i,
			Threshold:   t,
			MinQual:     opts.MinQual,
			Receivers:   receivers,
			Dealers:     receivers,
			Window:      opts.Window,
			Rand:        opts.Rand,
			Hooks:       opts.Hooks[i],
		})
	}
	return runSeats(ctx, opts.Net, cfgs)
}

// Reshare describes one in-process resharing epoch.
type Reshare struct {
	// Keys holds the old group keys of every dealing member (Index is
	// the old index).
	Keys []*dvss.GroupKey
	// Dealers is the announced old-index subset that deals; it must
	// have at least the old threshold members and a key for each.
	Dealers []int
	// NewSize and NewThreshold shape the new sharing.
	NewSize, NewThreshold int
	// Stay maps old index -> new receiver index for members that
	// remain across the epoch. New receiver indices not mapped to are
	// fresh joiners; dealers not in Stay are rotating out.
	Stay map[int]int
}

// ReshareCeremony runs one resharing epoch in-process: the subset deals
// λ-scaled shares of the old secret to the new roster, every receiver
// enforces the old-key binding, and — because the λ are fixed — any
// disqualified dealer aborts the epoch for everyone. On success the new
// group key's PK equals the old PK. Seats are returned for every node:
// first the new receivers ascending (including staying members), then
// any dealer-only (departing) members.
func ReshareCeremony(ctx context.Context, r Reshare, opts Opts) ([]*Seat, error) {
	if len(r.Dealers) == 0 || len(r.Keys) == 0 {
		return nil, fmt.Errorf("%w: empty resharing subset", taxonomy.ErrSetupFailed)
	}
	keyByIdx := make(map[int]*dvss.GroupKey, len(r.Keys))
	for _, k := range r.Keys {
		keyByIdx[k.Index] = k
	}
	oldComms := r.Keys[0].Commitments
	if len(r.Dealers) < r.Keys[0].Threshold {
		return nil, fmt.Errorf("%w: %d dealers for old threshold %d", taxonomy.ErrSetupFailed, len(r.Dealers), r.Keys[0].Threshold)
	}
	binding, err := ReshareBinding(oldComms, r.Dealers)
	if err != nil {
		return nil, err
	}
	if opts.Net == nil {
		opts.Net = transport.NewMemNetwork(nil, 0)
	}

	inSubset := make(map[int]bool, len(r.Dealers))
	for _, d := range r.Dealers {
		inSubset[d] = true
	}
	dealerFor := make(map[int]int) // new receiver index -> dealer index (staying subset member)
	for old, nw := range r.Stay {
		if inSubset[old] {
			dealerFor[nw] = old
		}
	}
	receivers := make(map[int]string, r.NewSize)
	for i := 1; i <= r.NewSize; i++ {
		receivers[i] = fmt.Sprintf("reshare-recv-%d", i)
	}
	dealers := make(map[int]string, len(r.Dealers))
	for _, d := range r.Dealers {
		if nw, staying := r.Stay[d]; staying {
			dealers[d] = receivers[nw] // one node, both roles
		} else {
			dealers[d] = fmt.Sprintf("reshare-deal-%d", d)
		}
	}

	var cfgs []Config
	for i := 1; i <= r.NewSize; i++ {
		cfg := Config{
			Session:           opts.Session,
			Index:             i,
			Threshold:         r.NewThreshold,
			MinQual:           len(r.Dealers),
			Receivers:         receivers,
			Dealers:           dealers,
			ExpectedC0:        binding,
			RequireAllDealers: true,
			Window:            opts.Window,
			Rand:              opts.Rand,
			Hooks:             opts.Hooks[-i],
		}
		if d, staying := dealerFor[i]; staying {
			key := keyByIdx[d]
			if key == nil {
				return nil, fmt.Errorf("%w: no old key for staying dealer %d", taxonomy.ErrSetupFailed, d)
			}
			secret, err := ReshareSecret(key, r.Dealers)
			if err != nil {
				return nil, err
			}
			cfg.DealerIndex = d
			cfg.Secret = secret
			cfg.Hooks = opts.Hooks[d]
		}
		cfgs = append(cfgs, cfg)
	}
	for _, d := range r.Dealers {
		if _, staying := r.Stay[d]; staying {
			continue
		}
		key := keyByIdx[d]
		if key == nil {
			return nil, fmt.Errorf("%w: no old key for dealer %d", taxonomy.ErrSetupFailed, d)
		}
		secret, err := ReshareSecret(key, r.Dealers)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, Config{
			Session:           opts.Session,
			DealerIndex:       d,
			Threshold:         r.NewThreshold,
			MinQual:           len(r.Dealers),
			Receivers:         receivers,
			Dealers:           dealers,
			Secret:            secret,
			ExpectedC0:        binding,
			RequireAllDealers: true,
			Window:            opts.Window,
			Rand:              opts.Rand,
			Hooks:             opts.Hooks[d],
		})
	}
	return runSeats(ctx, opts.Net, cfgs)
}

// runSeats attaches one endpoint per config and runs every node
// concurrently.
func runSeats(ctx context.Context, net *transport.MemNetwork, cfgs []Config) ([]*Seat, error) {
	type attached struct {
		cfg Config
		ep  transport.Endpoint
	}
	nodes := make([]attached, 0, len(cfgs))
	addr := func(c Config) string {
		if c.Index > 0 {
			return c.Receivers[c.Index]
		}
		return c.Dealers[c.DealerIndex]
	}
	for _, c := range cfgs {
		ep, err := net.Attach(addr(c))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, err)
		}
		nodes = append(nodes, attached{cfg: c, ep: ep})
	}
	seats := make([]*Seat, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd attached) {
			defer wg.Done()
			res, err := Run(ctx, nd.ep, nd.cfg)
			seats[i] = &Seat{Index: nd.cfg.Index, Result: res, Err: err}
		}(i, nd)
	}
	wg.Wait()
	for _, nd := range nodes {
		nd.ep.Close()
	}
	return seats, nil
}
