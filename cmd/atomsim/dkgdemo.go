package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"atom"
	"atom/internal/beacon"
	"atom/internal/dkg"
	"atom/internal/dvss"
	"atom/internal/store"
)

// demoWindow is the per-phase DKG message window the demo's ceremonies
// run under; honest phases early-advance, so it only bounds the
// straggler wait.
const demoWindow = 200 * time.Millisecond

// runDKGDemo is the trust-complete setup smoke (CI runs it
// race-instrumented). It walks the whole no-trusted-dealer story and
// fails loudly on any drift:
//
//  1. a joint-Feldman beacon-committee ceremony — with -churn N, N
//     members crash mid-deal and the survivors must still finish with
//     the crash attributed (ErrWithheld) and the dead dealers out of
//     QUAL;
//  2. a chained threshold-VRF beacon produced by that churn-survived
//     committee, every round verified on append;
//  3. a full network built by NewNetworkDKG — per-group ceremonies,
//     group formation sampled from beacon round 1 — mixing a round with
//     plaintext parity;
//  4. a resharing epoch: one operator rotates out, a fresh one in, the
//     group public key provably unchanged, and the next round mixes;
//  5. a persistence round-trip: trust transcript and chain journal into
//     a store, a "restarted" network restores and produces the
//     IDENTICAL next round — the restart cannot fork the beacon;
//  6. a laggard observer syncing a fresh chain from the producer's
//     records through full verification.
func runDKGDemo(churn, workers int) error {
	// Stage 1: the beacon committee's ceremony, under churn. Committee
	// of 5 with threshold 3 leaves two spare seats.
	const committee, cThreshold = 5, 3
	if churn > committee-cThreshold {
		return fmt.Errorf("churn %d exceeds the committee's %d spare seats", churn, committee-cThreshold)
	}
	hooks := make(map[int]*dkg.Hooks, churn)
	for i := 0; i < churn; i++ {
		// Crash after the second of four deal sends: some receivers hold
		// the deal, some don't — the worst case for vote agreement.
		hooks[cThreshold+i] = &dkg.Hooks{DieAfterDeals: 2}
	}
	fmt.Printf("trust-complete setup: committee of %d (threshold %d), %d crashing mid-deal\n",
		committee, cThreshold, churn)
	seats, err := dkg.Ceremony(context.Background(), committee, cThreshold, dkg.Opts{
		Window: demoWindow,
		Hooks:  hooks,
	})
	if err != nil {
		return fmt.Errorf("committee ceremony: %w", err)
	}
	keys := make([]*dvss.GroupKey, committee)
	for _, seat := range seats {
		if hooks[seat.Index] != nil {
			if !errors.Is(seat.Err, atom.ErrSetupFailed) {
				return fmt.Errorf("crashed member %d returned %v, want a dkg error", seat.Index, seat.Err)
			}
			continue
		}
		if seat.Err != nil {
			return fmt.Errorf("honest member %d failed: %w", seat.Index, seat.Err)
		}
		keys[seat.Index-1] = seat.Result.Key
	}
	var ref *dkg.Result
	for _, seat := range seats {
		if hooks[seat.Index] != nil {
			continue
		}
		if ref == nil {
			ref = seat.Result
		}
		if !seat.Result.Key.PK.Equal(ref.Key.PK) {
			return fmt.Errorf("honest members disagree on the committee public key")
		}
	}
	if want := committee - churn; len(ref.QUAL) != want {
		return fmt.Errorf("QUAL = %v, want %d qualified dealers", ref.QUAL, want)
	}
	if len(ref.Faults) != churn {
		return fmt.Errorf("faults = %v, want %d attributed crashes", ref.Faults, churn)
	}
	for _, f := range ref.Faults {
		if f.Role != dkg.RoleDealer || hooks[f.Index] == nil || !errors.Is(f.Err, dkg.ErrWithheld) {
			return fmt.Errorf("fault %v does not attribute a crashed dealer as withheld", f)
		}
	}
	fmt.Printf("  committee key established: QUAL %v, faults %v\n", ref.QUAL, ref.Faults)

	// Stage 2: the churn-survived committee produces a verified chain.
	chain, err := beacon.NewChain(beacon.InfoFromKey(ref.Key, []byte("atomsim-dkg-demo")))
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := chain.Produce(keys); err != nil {
			return fmt.Errorf("beacon round %d: %w", i+1, err)
		}
	}
	head, out := chain.Head()
	fmt.Printf("  committee beacon at round %d, output %x…\n", head, out[:8])

	// Stage 3: the full network — per-group ceremonies, formation from a
	// produced beacon round — mixes with plaintext parity.
	cfg := atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 64, Variant: atom.NIZK, Iterations: 3,
		MixWorkers: workers,
		Seed:       []byte("atomsim-dkg"),
	}
	n, err := atom.NewNetworkDKG(cfg, demoWindow)
	if err != nil {
		return fmt.Errorf("NewNetworkDKG: %w", err)
	}
	const msgs = 8
	want := make(map[string]bool, msgs)
	// mixOne opens a round, submits the tagged batch and mixes it.
	mixOne := func(tag string) (*atom.Result, error) {
		round, err := n.OpenRound(context.Background())
		if err != nil {
			return nil, err
		}
		for u := 0; u < msgs; u++ {
			m := fmt.Sprintf("dealerless %s %02d", tag, u)
			want[m] = true
			if err := round.Submit(u, []byte(m)); err != nil {
				return nil, err
			}
		}
		return round.Mix(context.Background())
	}
	parity := func(res *atom.Result) error {
		if len(res.Messages) != msgs {
			return fmt.Errorf("round %d mixed %d messages, want %d", res.Stats.Round, len(res.Messages), msgs)
		}
		for _, m := range res.Messages {
			if !want[string(bytes.TrimRight(m, "\x00"))] {
				return fmt.Errorf("round %d emitted unexpected plaintext %q", res.Stats.Round, m)
			}
		}
		return nil
	}
	res, err := mixOne("r1")
	if err != nil {
		return fmt.Errorf("first dealerless round: %w", err)
	}
	if err := parity(res); err != nil {
		return err
	}
	fmt.Printf("  network round %d mixed %d messages with no trusted dealer anywhere\n", res.Stats.Round, len(res.Messages))

	// Stage 4: a resharing epoch is invisible to users — same entry
	// keys, rotated operator.
	pkBefore, err := n.EntryKey(0)
	if err != nil {
		return err
	}
	if err := n.ReshareGroup(0, 1, 99); err != nil {
		return fmt.Errorf("resharing epoch: %w", err)
	}
	pkAfter, err := n.EntryKey(0)
	if err != nil {
		return err
	}
	if !bytes.Equal(pkBefore, pkAfter) {
		return fmt.Errorf("resharing changed group 0's public key")
	}
	if members := n.Deployment().GroupMembers(0); members[1] != 99 {
		return fmt.Errorf("resharing did not seat the replacement: roster %v", members)
	}
	if res, err = mixOne("r2"); err != nil {
		return fmt.Errorf("post-epoch round: %w", err)
	}
	if err := parity(res); err != nil {
		return err
	}
	fmt.Printf("  resharing epoch rotated an operator; group key unchanged, round %d still mixed\n", res.Stats.Round)

	// Stage 5: persistence round-trip. The restored network must RESUME
	// the chain — identical next round — not fork it.
	dir, err := os.MkdirTemp("", "atomsim-dkg-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if err := n.PersistTrust(st); err != nil {
		return fmt.Errorf("persisting trust: %w", err)
	}
	if err := st.PutDeployment(n.MarshalState()); err != nil {
		return err
	}
	if _, err := n.BeaconTick(); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	st2, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st2.Close()
	state := st2.State()
	n2, err := atom.RestoreNetwork(cfg, state.Deployment, state.MaxRound())
	if err != nil {
		return fmt.Errorf("restoring network: %w", err)
	}
	if err := n2.RestoreTrust(st2); err != nil {
		return fmt.Errorf("restoring trust: %w", err)
	}
	h1, o1 := n.BeaconChain().Head()
	h2, o2 := n2.BeaconChain().Head()
	if h1 != h2 || !bytes.Equal(o1, o2) {
		return fmt.Errorf("restored chain head (%d, %x) != original (%d, %x)", h2, o2, h1, o1)
	}
	if _, err := n.BeaconTick(); err != nil {
		return err
	}
	if _, err := n2.BeaconTick(); err != nil {
		return err
	}
	_, o1 = n.BeaconChain().Head()
	_, o2 = n2.BeaconChain().Head()
	if !bytes.Equal(o1, o2) {
		return fmt.Errorf("restarted beacon forked from the original chain")
	}
	fmt.Printf("  restart resumed the chain at round %d without forking (deterministic partials)\n", h2+1)

	// Stage 6: a laggard observer catches up through full verification.
	src := n.BeaconChain()
	laggard, err := beacon.NewChain(src.Info())
	if err != nil {
		return err
	}
	target, _ := src.Head()
	if err := laggard.SyncFrom(func(after uint64) ([]*beacon.Round, error) {
		return src.Records(after), nil
	}, target); err != nil {
		return fmt.Errorf("laggard catchup: %w", err)
	}
	lh, lo := laggard.Head()
	sh, so := src.Head()
	if lh != sh || !bytes.Equal(lo, so) {
		return fmt.Errorf("laggard head (%d, %x) != source (%d, %x)", lh, lo, sh, so)
	}
	fmt.Printf("  laggard verified and caught up to round %d\n", lh)
	fmt.Println("trust-complete setup smoke PASSED")
	return nil
}
