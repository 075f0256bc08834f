package dkg

import (
	"context"
	"crypto/rand"
	"crypto/sha3"
	"fmt"
	"io"
	"sort"
	"time"

	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// Transport message types. Echo variants carry the identical payload;
// they are re-broadcast once by each first receiver and never
// re-echoed, which is what makes every honest node tally the same vote
// union.
const (
	MsgDeal         = "dkg.deal"
	MsgResponse     = "dkg.resp"
	MsgResponseEcho = "dkg.resp.echo"
	MsgJustify      = "dkg.just"
	MsgJustifyEcho  = "dkg.just.echo"
)

// DefaultWindow is the per-phase message window. It must exceed twice
// the worst one-way latency between any two participants (one hop for
// the message, one for its echo).
const DefaultWindow = 2 * time.Second

// Config describes one participant of one ceremony. A fresh DKG's
// members are dealers and receivers at once (Index == DealerIndex); a
// resharing epoch splits the roles — old-group subset members deal,
// new-group members receive, and a member staying across the epoch is
// both.
type Config struct {
	// Session separates concurrent or successive ceremonies (epochs);
	// messages from other sessions are ignored.
	Session uint64
	// Index is this node's 1-based receiver index in the (new) group;
	// 0 for a dealer-only participant (a member rotating out).
	Index int
	// DealerIndex is this node's dealer index; 0 for a receiver-only
	// participant (a member rotating in).
	DealerIndex int
	// Threshold is t of the resulting (t, n) sharing.
	Threshold int
	// MinQual is the minimum qualified-dealer count below which the
	// ceremony aborts with ErrDKGInsufficient. Defaults to Threshold.
	MinQual int
	// Receivers maps receiver index -> transport address, defining n.
	Receivers map[int]string
	// Dealers maps dealer index -> transport address. A fresh DKG
	// passes the same map as Receivers.
	Dealers map[int]string
	// Secret is the value this node deals: nil draws a fresh random
	// secret (fresh DKG); a resharing dealer passes λ_d·oldShare.
	Secret *ecc.Scalar
	// ExpectedC0 is the resharing binding: for each dealer, the
	// required degree-0 commitment λ_d·(old share image). Nil for a
	// fresh DKG.
	ExpectedC0 map[int]*ecc.Point
	// RequireAllDealers makes every dealer load-bearing (resharing):
	// any disqualification aborts with ErrAborted.
	RequireAllDealers bool
	// Window is the per-phase message window; DefaultWindow if zero.
	Window time.Duration
	// Rand sources dealing entropy; crypto/rand if nil.
	Rand io.Reader
	// Hooks injects byzantine behavior for tests; nil is honest.
	Hooks *Hooks
}

// Hooks lets tests turn a node byzantine. Each On* hook may mutate the
// outgoing per-recipient message and returns whether to send it at all;
// nil hooks are honest pass-through.
type Hooks struct {
	// OnDeal intercepts the deal sent to receiver `to`.
	OnDeal func(to int, msg *DealMsg) bool
	// OnResponse intercepts the response broadcast to participant at
	// address `to`.
	OnResponse func(to string, msg *ResponseMsg) bool
	// OnJustify intercepts the justification broadcast to `to`.
	OnJustify func(to string, msg *JustificationMsg) bool
	// DieAfterDeals, when > 0, crashes the node (closing its endpoint)
	// after it has sent that many deals — the killed-mid-deal churn
	// case.
	DieAfterDeals int
}

// errDied marks a hook-induced crash (churn simulation).
var errDied = fmt.Errorf("%w: participant died mid-ceremony", taxonomy.ErrSetupFailed)

func (c *Config) validate() error {
	if c.Threshold < 1 || c.Threshold > len(c.Receivers) {
		return fmt.Errorf("%w: threshold %d of %d receivers", taxonomy.ErrSetupFailed, c.Threshold, len(c.Receivers))
	}
	if len(c.Dealers) == 0 {
		return fmt.Errorf("%w: no dealers", taxonomy.ErrSetupFailed)
	}
	if c.Index < 0 || c.Index > len(c.Receivers) {
		return fmt.Errorf("%w: receiver index %d of %d", taxonomy.ErrSetupFailed, c.Index, len(c.Receivers))
	}
	if c.Index == 0 && c.DealerIndex == 0 {
		return fmt.Errorf("%w: node is neither dealer nor receiver", taxonomy.ErrSetupFailed)
	}
	if c.Index > 0 {
		if _, ok := c.Receivers[c.Index]; !ok {
			return fmt.Errorf("%w: receiver index %d not in roster", taxonomy.ErrSetupFailed, c.Index)
		}
	}
	if c.DealerIndex > 0 {
		if _, ok := c.Dealers[c.DealerIndex]; !ok {
			return fmt.Errorf("%w: dealer index %d not in roster", taxonomy.ErrSetupFailed, c.DealerIndex)
		}
	}
	for i := 1; i <= len(c.Receivers); i++ {
		if _, ok := c.Receivers[i]; !ok {
			return fmt.Errorf("%w: receiver roster missing index %d", taxonomy.ErrSetupFailed, i)
		}
	}
	return nil
}

// node is the running state of one ceremony participant.
type node struct {
	cfg     Config
	ep      transport.Endpoint
	tally   *tally
	dealers []int
	peers   []string // every other participant's address
	window  time.Duration
	dealing *dvss.Dealing // this node's own dealing (nil if not a dealer)
	echoed  map[string]bool
	sent    int // deals sent, for DieAfterDeals
}

// Run executes one ceremony from this participant's seat: it deals (if
// a dealer), votes (if a receiver), echoes, justifies, and returns the
// node's Result. All honest participants of one session return the
// same QUAL, the same faults, and shares of the same group key. The
// endpoint is not closed by Run (except by a DieAfterDeals hook).
func Run(ctx context.Context, ep transport.Endpoint, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MinQual == 0 {
		cfg.MinQual = cfg.Threshold
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}

	n := &node{cfg: cfg, ep: ep, window: cfg.Window, echoed: make(map[string]bool)}
	for d := range cfg.Dealers {
		n.dealers = append(n.dealers, d)
	}
	sort.Ints(n.dealers)
	n.tally = newTally(n.dealers, cfg.Threshold, len(cfg.Receivers))
	n.tally.expectedC0 = cfg.ExpectedC0
	n.tally.requireAll = cfg.RequireAllDealers

	peerSet := make(map[string]bool)
	for _, a := range cfg.Receivers {
		peerSet[a] = true
	}
	for _, a := range cfg.Dealers {
		peerSet[a] = true
	}
	delete(peerSet, ep.Addr())
	for a := range peerSet {
		n.peers = append(n.peers, a)
	}
	sort.Strings(n.peers)

	if cfg.DealerIndex > 0 {
		if err := n.deal(ctx); err != nil {
			return nil, err
		}
	}
	return n.run(ctx)
}

// deal draws (or takes) the secret, builds this node's dealing, and
// sends every receiver its share.
func (n *node) deal(ctx context.Context) error {
	secret := n.cfg.Secret
	if secret == nil {
		var err error
		if secret, err = ecc.RandomScalar(n.cfg.Rand); err != nil {
			return fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, err)
		}
	}
	dealing, err := dvss.Deal(secret, n.cfg.Threshold, len(n.cfg.Receivers), n.cfg.Rand)
	if err != nil {
		return fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, err)
	}
	n.dealing = dealing
	for i := 1; i <= len(n.cfg.Receivers); i++ {
		msg := &DealMsg{
			Session:     n.cfg.Session,
			Dealer:      n.cfg.DealerIndex,
			Commitments: clonePoints(dealing.Commitments),
			Share:       dealing.Shares[i-1].Clone(),
		}
		if h := n.cfg.Hooks; h != nil && h.OnDeal != nil && !h.OnDeal(i, msg) {
			continue
		}
		if i == n.cfg.Index {
			n.tally.addDeal(msg)
		} else {
			_ = n.ep.SendCtx(ctx, n.cfg.Receivers[i], &transport.Message{Type: MsgDeal, Payload: msg.Marshal()})
		}
		n.sent++
		if h := n.cfg.Hooks; h != nil && h.DieAfterDeals > 0 && n.sent >= h.DieAfterDeals {
			n.ep.Close()
			return errDied
		}
	}
	return nil
}

// run drives the phase windows: deal → response → (justification) →
// finalize. Every inbound message is buffered into the tally whenever
// it arrives; the windows only decide when this node speaks.
func (n *node) run(ctx context.Context) (*Result, error) {
	const (
		phaseDeal = iota
		phaseResponse
		phaseJustify
	)
	phase := phaseDeal
	began := time.Now()
	timer := time.NewTimer(n.window)
	defer timer.Stop()

	advance := func() (*Result, error, bool) {
		switch phase {
		case phaseDeal:
			if n.cfg.Index > 0 {
				n.respond(ctx)
			}
			phase = phaseResponse
			timer.Reset(n.window)
		case phaseResponse:
			// Closing the deal phase early started this window early
			// too. A member some dealer withheld from only speaks when
			// its OWN deal window runs out — up to a full window after
			// ours did — and its complaint must land in everyone's tally
			// or the honest members split on QUAL. So while any voter is
			// still silent, stay open until a whole deal window plus a
			// whole response window have passed; once everyone has voted
			// nothing more is owed and the early close stands.
			if wait := time.Until(began.Add(2 * n.window)); wait > 0 && len(n.tally.votes) < n.tally.size {
				timer.Reset(wait)
				return nil, nil, false
			}
			implicated := n.tally.implicated()
			if len(implicated) == 0 {
				res, err := n.tally.finalize(n.cfg.Index, n.cfg.MinQual)
				return res, err, true
			}
			if n.cfg.DealerIndex > 0 {
				if members := implicated[n.cfg.DealerIndex]; len(members) > 0 {
					n.justify(ctx, members)
				}
			}
			phase = phaseJustify
			timer.Reset(n.window)
		case phaseJustify:
			res, err := n.tally.finalize(n.cfg.Index, n.cfg.MinQual)
			return res, err, true
		}
		return nil, nil, false
	}

	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", taxonomy.ErrSetupFailed, ctx.Err())
		case <-timer.C:
			if res, err, done := advance(); done {
				return res, err
			}
		case msg, ok := <-n.ep.Inbox():
			if !ok {
				return nil, fmt.Errorf("%w: endpoint closed mid-ceremony", taxonomy.ErrSetupFailed)
			}
			n.handle(ctx, msg)
			// The deal phase may close early once every dealer has
			// delivered; response and justification windows always run
			// to their deadline so echoes settle identically everywhere.
			if phase == phaseDeal && n.cfg.Index > 0 && len(n.tally.deals) == len(n.dealers) {
				if !timer.Stop() {
					<-timer.C
				}
				if res, err, done := advance(); done {
					return res, err
				}
			}
		}
	}
}

// respond derives this node's votes from its received deals and
// broadcasts them to every participant.
func (n *node) respond(ctx context.Context) {
	base := &ResponseMsg{Session: n.cfg.Session, Voter: n.cfg.Index, Votes: n.tally.myVotes(n.cfg.Index)}
	n.tally.addResponse(base)
	for _, to := range n.peers {
		msg := &ResponseMsg{Session: base.Session, Voter: base.Voter, Votes: append([]Vote(nil), base.Votes...)}
		if h := n.cfg.Hooks; h != nil && h.OnResponse != nil && !h.OnResponse(to, msg) {
			continue
		}
		_ = n.ep.SendCtx(ctx, to, &transport.Message{Type: MsgResponse, Payload: msg.Marshal()})
	}
}

// justify publicly reveals this dealer's shares for the implicated
// members.
func (n *node) justify(ctx context.Context, members []int) {
	if n.dealing == nil {
		return
	}
	base := &JustificationMsg{
		Session:     n.cfg.Session,
		Dealer:      n.cfg.DealerIndex,
		Commitments: clonePoints(n.dealing.Commitments),
	}
	for _, m := range members {
		if m >= 1 && m <= len(n.dealing.Shares) {
			base.Shares = append(base.Shares, JustShare{Member: m, Share: n.dealing.Shares[m-1].Clone()})
		}
	}
	n.tally.addJustification(base)
	for _, to := range n.peers {
		msg := &JustificationMsg{
			Session:     base.Session,
			Dealer:      base.Dealer,
			Commitments: clonePoints(base.Commitments),
			Shares:      append([]JustShare(nil), base.Shares...),
		}
		if h := n.cfg.Hooks; h != nil && h.OnJustify != nil && !h.OnJustify(to, msg) {
			continue
		}
		_ = n.ep.SendCtx(ctx, to, &transport.Message{Type: MsgJustify, Payload: msg.Marshal()})
	}
}

// handle buffers one inbound message and echoes first-seen responses
// and justifications so all honest tallies converge on the same union.
func (n *node) handle(ctx context.Context, msg *transport.Message) {
	switch msg.Type {
	case MsgDeal:
		m, err := DecodeDealMsg(msg.Payload)
		if err != nil || m.Session != n.cfg.Session {
			return
		}
		n.tally.addDeal(m)
	case MsgResponse, MsgResponseEcho:
		m, err := DecodeResponseMsg(msg.Payload)
		if err != nil || m.Session != n.cfg.Session {
			return
		}
		n.tally.addResponse(m)
		if msg.Type == MsgResponse {
			n.echo(ctx, MsgResponseEcho, msg.Payload)
		}
	case MsgJustify, MsgJustifyEcho:
		m, err := DecodeJustificationMsg(msg.Payload)
		if err != nil || m.Session != n.cfg.Session {
			return
		}
		n.tally.addJustification(m)
		if msg.Type == MsgJustify {
			n.echo(ctx, MsgJustifyEcho, msg.Payload)
		}
	}
}

// echo re-broadcasts a first-seen payload once. Echoes of echoes are
// suppressed by type, and duplicate payloads by hash.
func (n *node) echo(ctx context.Context, echoType string, payload []byte) {
	sum := sha3.Sum256(payload)
	key := echoType + string(sum[:])
	if n.echoed[key] {
		return
	}
	n.echoed[key] = true
	for _, to := range n.peers {
		_ = n.ep.SendCtx(ctx, to, &transport.Message{Type: echoType, Payload: payload})
	}
}

func clonePoints(ps []*ecc.Point) []*ecc.Point {
	out := make([]*ecc.Point, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}
