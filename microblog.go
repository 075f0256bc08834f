package atom

import (
	"context"

	"atom/internal/bulletin"
	"atom/internal/microblog"
)

// MicroblogMessageSize is the paper's microblogging message size
// (160 bytes, roughly a Tweet; §5). A Config used with NewMicroblog
// must set MessageSize to this value.
const MicroblogMessageSize = microblog.MessageSize

// Post is one published microblog message.
type Post struct {
	Round   uint64
	Seq     int
	Message string
}

// Microblog is the anonymous microblogging application (§5): posts are
// padded, onion-encrypted, mixed through the network, and the
// anonymized batch is published to a bulletin board.
type Microblog struct {
	svc *microblog.Service
}

// NewMicroblog attaches the microblogging application to a network
// whose MessageSize is MicroblogMessageSize.
func NewMicroblog(n *Network) (*Microblog, error) {
	svc, err := microblog.NewService(n.d, bulletin.NewBoard())
	if err != nil {
		return nil, err
	}
	return &Microblog{svc: svc}, nil
}

// Post submits one message for the given user into the current round.
func (m *Microblog) Post(user int, text string) error {
	return m.svc.Post(user, text, entropy())
}

// PostOpen submits one message through a continuous Service, into
// whichever round is currently open, returning that round's id — the
// application's continuous mode: posters never wait for an explicit
// Publish, the service's round scheduler seals and mixes on its own
// cadence and PublishOutcome lands each batch on the board.
func (m *Microblog) PostOpen(svc *Service, user int, text string) error {
	if err := microblog.ValidatePost(text); err != nil {
		return err
	}
	_, err := svc.Submit(user, []byte(text))
	return err
}

// PublishOutcome records a continuous round's outcome on the bulletin
// board and returns the published posts. Failed rounds (outcome.Err set)
// publish nothing and return the round's error.
func (m *Microblog) PublishOutcome(out *RoundOutcome) ([]Post, error) {
	if out.Err != nil {
		return nil, out.Err
	}
	posts, err := m.svc.PublishResult(out.Round, out.Messages)
	if err != nil {
		return nil, err
	}
	pub := make([]Post, len(posts))
	for i, p := range posts {
		pub[i] = Post{Round: p.Round, Seq: p.Seq, Message: string(p.Message)}
	}
	return pub, nil
}

// Publish mixes the round and publishes the anonymized posts, returning
// them in board order.
func (m *Microblog) Publish() ([]Post, error) {
	return m.PublishCtx(context.Background())
}

// PublishCtx is Publish with cancellation/deadline propagation into the
// mixing iterations; errors classify under the package taxonomy.
func (m *Microblog) PublishCtx(ctx context.Context) ([]Post, error) {
	posts, err := m.svc.RunRoundCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Post, len(posts))
	for i, p := range posts {
		out[i] = Post{Round: p.Round, Seq: p.Seq, Message: string(p.Message)}
	}
	return out, nil
}

// Board returns every post published so far, across rounds.
func (m *Microblog) Board() []Post {
	all := m.svc.Board().All()
	out := make([]Post, len(all))
	for i, p := range all {
		out[i] = Post{Round: p.Round, Seq: p.Seq, Message: string(p.Message)}
	}
	return out
}
