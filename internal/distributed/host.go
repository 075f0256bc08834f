package distributed

import (
	"context"
	"fmt"

	"atom/internal/taxonomy"
	"atom/internal/transport"
)

// HostOptions is what a member host knows before any coordinator talks
// to it. None of it is key material — that only ever arrives in a
// config message (or replays from Resume).
type HostOptions struct {
	// ConfigHash is the canonical hash of the group-config file this
	// host was provisioned from (store.GroupConfig.Hash). When set, a
	// config carrying a different hash — over the wire or in Resume — is
	// refused instead of adopted: the coordinator and every member must
	// agree on the file. Empty disables the check.
	ConfigHash []byte
	// OnConfig persists an accepted config's wire form before it is
	// acknowledged, so a crash after the ack can always replay it. A
	// persistence failure refuses the config: one the host cannot make
	// durable is one it must not promise to hold. A host with this hook
	// says so in every ack, and the coordinator then treats its silence
	// as a possible restart-with-state-intact rather than a loss.
	OnConfig func(cfg []byte) error
	// Resume is a previously persisted member config (the bytes OnConfig
	// received). When set, the host boots already configured — adopting
	// it through the same gate a wire config passes — and greets its
	// coordinator with a rejoin instead of waiting to be provisioned.
	Resume []byte
}

// HostMember serves one group member on an endpoint: it boots
// unconfigured (or resumed, see HostOptions.Resume), adopts whatever
// MemberConfig a coordinator sends it, and runs the actor loop until the
// endpoint closes, a stop message arrives, or ctx ends. It is the only
// way a member comes to life — the Cluster boots its locally attached
// members as the same unconfigured Actor `atomd -member -listen
// host:port` runs, and provisions both over the wire.
//
// The config channel carries the member's secret share — it stands in
// for the out-of-band provisioning (or a networked DKG) of a production
// deployment and must be protected accordingly (the §2.1 TLS
// assumption).
func HostMember(ctx context.Context, ep transport.Endpoint, opts HostOptions) error {
	a := &Actor{ep: ep, opts: opts}
	if len(opts.Resume) > 0 {
		if err := a.resume(ctx); err != nil {
			return err
		}
	}
	return a.Serve(ctx)
}

// resume re-adopts the persisted config after a crash: the actor comes
// back under its old identity at its old address and announces itself,
// so the coordinator re-admits it without re-planning — and replays any
// round attempt whose in-flight state died with the old process.
func (a *Actor) resume(ctx context.Context) error {
	switch a.adopt(a.opts.Resume, false) {
	case ackAccepted:
	case ackHashMismatch:
		return fmt.Errorf("%w: persisted member config was provisioned under a different group config", taxonomy.ErrConfigMismatch)
	default:
		return fmt.Errorf("%w: persisted member config does not decode to a consistent member", taxonomy.ErrStateCorrupt)
	}
	a.ack(ctx, a.cfg.Coordinator, ackRejoin)
	return nil
}
