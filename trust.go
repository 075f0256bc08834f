package atom

import (
	"context"
	"fmt"
	"sort"
	"time"

	"atom/internal/beacon"
	"atom/internal/dkg"
	"atom/internal/dvss"
	"atom/internal/protocol"
	"atom/internal/store"
	"atom/internal/wirecodec"
)

// This file is the network's trust-complete setup path. NewNetwork
// plays a trusted dealer twice over: the deterministic hash-chain
// beacon that samples the groups is predictable by anyone holding the
// seed, and each group's threshold key is generated in one place.
// NewNetworkDKG replaces both: a joint-Feldman ceremony (internal/dkg)
// elects a beacon committee whose threshold VRF drives a chained,
// publicly-verifiable randomness beacon (internal/beacon.Chain), group
// formation samples from a produced beacon round, and every group's key
// comes from its own per-group ceremony — no party ever holds a group
// secret. PersistTrust/RestoreTrust journal the transcript and chain
// through internal/store so a restarted network resumes the chain
// instead of forking it.

// trustVersion frames the persisted trust transcript.
const trustVersion = 1

// NewNetworkDKG builds a network with no trusted dealer. It runs a
// joint-Feldman ceremony among GroupSize beacon-committee members with
// the deployment's threshold, produces beacon round 1 from the
// committee's threshold VRF, forms the groups from that verifiable
// output, and then runs one DKG ceremony per group for the mixing keys.
// window is the per-phase ceremony message window (0 selects the dkg
// package default; tests use small windows, deployments larger ones).
//
// Setup failures surface as ErrSetupFailed (ErrDKGInsufficient when too
// few qualified participants remain), with the dkg package's per-member
// fault attribution in the chain.
func NewNetworkDKG(cfg Config, window time.Duration) (*Network, error) {
	icfg := cfg.internal()
	if err := icfg.Validate(); err != nil {
		return nil, err
	}
	keys, chain, err := bootstrapBeacon(icfg.GroupSize, icfg.Threshold(), icfg.Seed, window)
	if err != nil {
		return nil, err
	}
	d, err := protocol.NewDeploymentSetup(icfg, &protocol.Setup{
		Source:    chain,
		Round:     1,
		GroupKeys: protocol.DKGGroupKeys(window, nil),
	})
	if err != nil {
		return nil, err
	}
	valid := d.Config()
	client, err := protocol.NewClient(&valid)
	if err != nil {
		return nil, err
	}
	n := &Network{d: d, client: client}
	n.chain = chain
	n.beaconKeys = keys
	n.dkgWindow = window
	return n, nil
}

// bootstrapBeacon runs the committee ceremony and starts the verified
// chain with its first produced round, so group formation has a real
// beacon output to sample from.
func bootstrapBeacon(size, threshold int, seed []byte, window time.Duration) ([]*dvss.GroupKey, *beacon.Chain, error) {
	seats, err := dkg.Ceremony(context.Background(), size, threshold, dkg.Opts{Window: window})
	if err != nil {
		return nil, nil, fmt.Errorf("atom: beacon committee ceremony: %w", err)
	}
	keys := make([]*dvss.GroupKey, size)
	for _, seat := range seats {
		if seat.Err != nil {
			return nil, nil, fmt.Errorf("atom: beacon committee member %d: %w", seat.Index, seat.Err)
		}
		keys[seat.Index-1] = seat.Result.Key
	}
	chain, err := beacon.NewChain(beacon.InfoFromKey(keys[0], seed))
	if err != nil {
		return nil, nil, err
	}
	if _, err := chain.Produce(keys); err != nil {
		return nil, nil, err
	}
	return keys, chain, nil
}

// BeaconChain exposes the network's verifiable randomness chain (nil on
// networks built by NewNetwork/RestoreNetwork without RestoreTrust).
// Laggards sync against it with beacon.Chain.SyncFrom over its Records.
func (n *Network) BeaconChain() *beacon.Chain { return n.chain }

// BeaconTick produces, verifies and appends the beacon's next round,
// returning the new head number. Every tick re-randomizes what future
// group formation and trap derivation can consume.
func (n *Network) BeaconTick() (uint64, error) {
	if n.chain == nil {
		return 0, fmt.Errorf("%w: network has no beacon committee (built without DKG setup)", ErrSetupFailed)
	}
	return n.chain.Produce(n.beaconKeys)
}

// ReshareGroup runs one resharing epoch on group gid: the member at
// position outPos rotates out, newServer rotates in with a freshly
// dealt share, and the group public key — hence every outstanding
// ciphertext — is unchanged. The departed member's share lies on the
// retired polynomial and is useless against future traffic.
func (n *Network) ReshareGroup(gid, outPos, newServer int) error {
	return n.d.ReshareGroup(gid, outPos, newServer, n.dkgWindow)
}

// PersistTrust journals the network's trust material into st: the DKG
// transcript (chain info + committee threshold keys) once, every beacon
// round produced so far, and — via the chain's append hook — every
// round produced from now on. Call it once after NewNetworkDKG;
// RestoreTrust is the inverse.
func (n *Network) PersistTrust(st *store.Store) error {
	if n.chain == nil {
		return fmt.Errorf("%w: network has no beacon committee (built without DKG setup)", ErrSetupFailed)
	}
	if err := st.PutDKG(encodeTrust(n.chain.Info(), n.beaconKeys)); err != nil {
		return err
	}
	for _, r := range n.chain.Records(0) {
		if err := st.RecordBeacon(r.Number, r.Marshal()); err != nil {
			return err
		}
	}
	n.chain.OnAppend(func(r *beacon.Round) {
		// Fires under the chain lock in round order; a journaling failure
		// here must not lose the round silently, but the hook cannot
		// return an error — the next PersistTrust/RecordBeacon caller
		// surfaces the store failure.
		_ = st.RecordBeacon(r.Number, r.Marshal())
	})
	return nil
}

// RestoreTrust rebuilds the beacon committee and verified chain from a
// store written by PersistTrust: the transcript re-validates (every
// committee share must open its Feldman commitments), every journaled
// round replays through full chain verification, and journaling of new
// rounds resumes. Damaged state fails with ErrStateCorrupt; a forged
// round fails the chain's own verification.
func (n *Network) RestoreTrust(st *store.Store) error {
	state := st.State()
	if state.DKG == nil {
		return fmt.Errorf("%w: store holds no trust transcript", ErrStateCorrupt)
	}
	info, keys, err := decodeTrust(state.DKG)
	if err != nil {
		return err
	}
	chain, err := beacon.NewChain(info)
	if err != nil {
		return err
	}
	rounds := make([]*beacon.Round, 0, len(state.Beacon))
	for num, enc := range state.Beacon {
		r, err := beacon.DecodeRound(enc)
		if err != nil || r.Number != num {
			return fmt.Errorf("%w: beacon round %d record: %v", ErrStateCorrupt, num, err)
		}
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].Number < rounds[j].Number })
	if _, err := chain.Catchup(rounds); err != nil {
		return err
	}
	n.chain = chain
	n.beaconKeys = keys
	n.chain.OnAppend(func(r *beacon.Round) {
		_ = st.RecordBeacon(r.Number, r.Marshal())
	})
	return nil
}

// encodeTrust marshals the chain description and the committee's
// threshold keys as the store's opaque DKG transcript.
func encodeTrust(info *beacon.ChainInfo, keys []*dvss.GroupKey) []byte {
	var e wirecodec.Enc
	e.Byte(trustVersion)
	e.Bytes(info.Marshal())
	e.U64(uint64(len(keys)))
	for _, k := range keys {
		if k == nil {
			e.Byte(0)
			continue
		}
		e.Byte(1)
		e.I(k.Index)
		e.I(k.Threshold)
		e.I(k.Size)
		e.Scalar(k.Share)
		e.Point(k.PK)
		e.Points(k.Commitments)
	}
	return e.Out()
}

// decodeTrust is the inverse of encodeTrust, cryptographically
// re-validating every share against its commitments.
func decodeTrust(b []byte) (*beacon.ChainInfo, []*dvss.GroupKey, error) {
	fail := func(what string, err error) (*beacon.ChainInfo, []*dvss.GroupKey, error) {
		return nil, nil, fmt.Errorf("%w: trust transcript %s: %v", ErrStateCorrupt, what, err)
	}
	d := wirecodec.NewDec(b)
	v, err := d.Byte()
	if err != nil || v != trustVersion {
		return fail("version", err)
	}
	infoBytes, err := d.Bytes()
	if err != nil {
		return fail("chain info", err)
	}
	info, err := beacon.DecodeChainInfo(infoBytes)
	if err != nil {
		return fail("chain info", err)
	}
	count, err := d.Count()
	if err != nil {
		return fail("key count", err)
	}
	keys := make([]*dvss.GroupKey, count)
	for i := 0; i < count; i++ {
		present, err := d.Byte()
		if err != nil {
			return fail("key flag", err)
		}
		if present == 0 {
			continue
		}
		k := &dvss.GroupKey{}
		if k.Index, err = d.I(); err != nil {
			return fail("key index", err)
		}
		if k.Threshold, err = d.I(); err != nil {
			return fail("key threshold", err)
		}
		if k.Size, err = d.I(); err != nil {
			return fail("key size", err)
		}
		if k.Share, err = d.Scalar(); err != nil {
			return fail("key share", err)
		}
		if k.PK, err = d.Point(); err != nil {
			return fail("key pk", err)
		}
		if k.Commitments, err = d.Points(); err != nil {
			return fail("key commitments", err)
		}
		if k.Index != i+1 || k.PK == nil || !k.PK.Equal(info.PK) {
			return fail("key identity", fmt.Errorf("index %d at position %d", k.Index, i))
		}
		if err := dvss.VerifyShare(k.Commitments, k.Index, k.Share); err != nil {
			return fail("key share validation", err)
		}
		keys[i] = k
	}
	if err := d.Done(); err != nil {
		return fail("trailing bytes", err)
	}
	return info, keys, nil
}
