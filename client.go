package atom

import (
	"fmt"

	"atom/internal/ecc"
	"atom/internal/groupmgr"
	"atom/internal/protocol"
)

// Client performs the user side of the protocol — padding, onion
// encryption, proof-of-plaintext-knowledge, and (in the trap variant)
// trap generation and commitment — producing wire-encoded submissions
// that can be shipped to a remote entry group (cmd/atomclient does
// exactly this over TCP).
type Client struct {
	cfg protocol.Config
	c   *protocol.Client
}

// NewClient creates a client for a deployment configuration. The client
// never holds server secrets; it only needs the deployment parameters
// and the entry group's public key.
func NewClient(cfg Config) (*Client, error) {
	icfg := cfg.internal()
	c, err := protocol.NewClient(&icfg)
	if err != nil {
		return nil, err
	}
	if err := icfg.Validate(); err != nil {
		return nil, err
	}
	return &Client{cfg: icfg, c: c}, nil
}

// EncryptSubmission builds a wire-encoded submission of msg for entry
// group gid whose public key is entryKey (as returned by
// Network.EntryKey). In the trap variant the target round's trusteeKey
// (Round.TrusteeKey, Service.Current) must also be supplied; pass nil
// for the NIZK variant.
func (c *Client) EncryptSubmission(msg, entryKey, trusteeKey []byte, gid int) ([]byte, error) {
	pk, err := ecc.PointFromBytes(entryKey)
	if err != nil {
		return nil, fmt.Errorf("atom: bad entry key: %w", err)
	}
	switch c.cfg.Variant {
	case protocol.VariantNIZK:
		sub, err := c.c.Submit(msg, pk, gid, entropy())
		if err != nil {
			return nil, err
		}
		return sub.Encode(), nil
	default:
		tpk, err := ecc.PointFromBytes(trusteeKey)
		if err != nil {
			return nil, fmt.Errorf("atom: bad trustee key: %w", err)
		}
		sub, err := c.c.SubmitTrap(msg, pk, tpk, gid, entropy())
		if err != nil {
			return nil, err
		}
		return sub.Encode(), nil
	}
}

// RequiredGroupSize returns the minimum anytrust group size k such that,
// with G groups and adversarial fraction f, every group contains at
// least h honest servers except with probability below 2⁻⁶⁴ (paper
// §4.1 and Appendix B). It is how deployments should pick
// Config.GroupSize.
func RequiredGroupSize(f float64, groups, honest int) (int, error) {
	return groupmgr.RequiredGroupSize(f, groups, honest, groupmgr.DefaultSecurityBits)
}
