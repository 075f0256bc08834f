// Package microblog is Atom's anonymous microblogging application
// (paper §5): users broadcast short fixed-size messages (the evaluation
// uses 160 bytes — roughly a Tweet) through the mix-net, and the exit
// servers publish the anonymized batch to a public bulletin board.
package microblog

import (
	"context"
	"fmt"
	"io"
	"unicode/utf8"

	"atom/internal/bulletin"
	"atom/internal/protocol"
)

// MessageSize is the paper's microblog message size: "We use 160 byte
// messages in our evaluation" (§5).
const MessageSize = 160

// Service glues a protocol deployment to a bulletin board.
type Service struct {
	deployment *protocol.Deployment
	client     *protocol.Client
	board      *bulletin.Board
	round      uint64

	// open is the round Post submits into and RunRound mixes; nil until
	// the first Post and again once a round has been sealed.
	open *protocol.RoundState
}

// NewService creates a microblogging service over an existing
// deployment. The deployment's MessageSize must be MessageSize.
func NewService(d *protocol.Deployment, board *bulletin.Board) (*Service, error) {
	cfg := d.Config()
	if cfg.MessageSize != MessageSize {
		return nil, fmt.Errorf("microblog: deployment message size %d, want %d", cfg.MessageSize, MessageSize)
	}
	client, err := protocol.NewClient(&cfg)
	if err != nil {
		return nil, err
	}
	return &Service{deployment: d, client: client, board: board}, nil
}

// ValidatePost checks a post against the application's message rules:
// valid UTF-8, at most MessageSize−2 bytes (2 bytes of length framing).
func ValidatePost(text string) error {
	if !utf8.ValidString(text) {
		return fmt.Errorf("microblog: post is not valid UTF-8")
	}
	if len(text) > MessageSize-2 {
		return fmt.Errorf("microblog: post of %d bytes exceeds %d", len(text), MessageSize-2)
	}
	return nil
}

// openRound returns the round collecting posts, opening one if the
// previous round was mixed (or none was opened yet).
func (s *Service) openRound() (*protocol.RoundState, error) {
	if s.open == nil {
		rs, err := s.deployment.OpenRound()
		if err != nil {
			return nil, err
		}
		s.open = rs
	}
	return s.open, nil
}

// Post submits one microblog message for the given user into the open
// round, choosing the entry group by user id (an untrusted load
// balancer would do this in a deployment, §3).
func (s *Service) Post(user int, text string, rnd io.Reader) error {
	if err := ValidatePost(text); err != nil {
		return err
	}
	rs, err := s.openRound()
	if err != nil {
		return err
	}
	gid := user % s.deployment.NumGroups()
	pk, err := s.deployment.GroupPK(gid)
	if err != nil {
		return err
	}
	switch rs.Variant() {
	case protocol.VariantNIZK:
		sub, err := s.client.Submit([]byte(text), pk, gid, rnd)
		if err != nil {
			return err
		}
		return rs.SubmitUser(user, sub)
	case protocol.VariantTrap:
		tpk, err := rs.TrusteePK()
		if err != nil {
			return err
		}
		sub, err := s.client.SubmitTrap([]byte(text), pk, tpk, gid, rnd)
		if err != nil {
			return err
		}
		return rs.SubmitTrapUser(user, sub)
	default:
		return fmt.Errorf("microblog: unknown variant %v", rs.Variant())
	}
}

// Posted returns the number of accepted posts for the open round.
func (s *Service) Posted() int {
	if s.open == nil {
		return 0
	}
	return s.open.Pending()
}

// RunRound mixes the collected posts and publishes the anonymized batch
// to the bulletin board, returning the published posts.
func (s *Service) RunRound() ([]bulletin.Post, error) {
	return s.RunRoundCtx(context.Background())
}

// RunRoundCtx is RunRound with cancellation/deadline propagation into
// the mixing iterations.
func (s *Service) RunRoundCtx(ctx context.Context) ([]bulletin.Post, error) {
	rs, err := s.openRound()
	if err != nil {
		return nil, err
	}
	res, err := s.deployment.RunRoundCtx(ctx, rs, nil)
	if rs.Sealed() {
		s.open = nil // consumed, mixed or aborted; a dead ctx leaves it open
	}
	if err != nil {
		return nil, err
	}
	round := s.round
	if err := s.board.Publish(round, res.Messages); err != nil {
		return nil, err
	}
	s.round++
	return s.board.Round(round), nil
}

// PublishResult records an externally mixed round's anonymized batch on
// the board — the continuous-service path, where rounds are sealed and
// mixed by a pipeline rather than by RunRound. round is the mix-net's
// round id; the board keys posts by it.
func (s *Service) PublishResult(round uint64, msgs [][]byte) ([]bulletin.Post, error) {
	if err := s.board.Publish(round, msgs); err != nil {
		return nil, err
	}
	return s.board.Round(round), nil
}

// Board exposes the bulletin board for readers.
func (s *Service) Board() *bulletin.Board { return s.board }
