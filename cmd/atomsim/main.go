// Command atomsim regenerates the tables and figures of the paper's
// evaluation section (§6): Tables 3, 4, 12 and Figures 5, 6, 7, 9, 10,
// 11, 13.
//
//	atomsim -all               # everything, cost model measured locally
//	atomsim -fig 9             # one figure
//	atomsim -table 12 -paper   # one table, using published Table 3 costs
//	atomsim -live              # run a real round, per-iteration stats
//	atomsim -distributed       # full round as actors over the WAN-latency memnet
//	atomsim -distributed -churn 1   # kill a member mid-round: degraded completion
//	atomsim -distributed -churn 2   # exceed the budget: ErrMemberLost → wire recovery
//	atomsim -serve -rounds 3        # continuous service: back-to-back pipelined rounds
//	atomsim -dkg -churn 1           # trust-complete setup smoke: DKG under churn, verifiable beacon, resharing, persistence
//
// atomsim demonstrates and smoke-tests; it does not measure. The one
// place the system's cost is recorded is the reference benchmark
// (benchmark/README.md: bash benchmark/run.sh).
//
// -serve runs the continuous pipeline end to end: a daemon hosts the
// deployment with its ingestion frontend enabled, the mixing runs as
// distributed actors over the latency-modeled in-memory network with
// cross-round pipelining (round r+1 enters layer 0 while round r
// traverses later layers), and a synthetic client fleet submits
// wire-encoded batches over TCP, driving -rounds back-to-back rounds.
// The report gives per-round latency, the observed cross-round overlap,
// and the sustained throughput (msgs/sec, rounds/min).
//
// -live executes a real in-process deployment (real cryptography) and
// reports per-iteration latency, messages mixed and proofs verified
// through the public Observer/RoundStats hooks.
//
// -distributed executes the same round as the distributed engine: every
// group member is an independent actor exchanging framed messages over
// the in-memory network with the paper's emulated 40–160 ms pairwise
// WAN latency (§6), and the report adds per-member transport traffic.
//
// -churn N (with -distributed) injects failures: after the first mixing
// iteration completes, N members of group 0 are killed. The deployment
// then uses many-trust groups (k=3, h=2, one buddy group each), so one
// loss is re-planned around mid-round and the round still delivers,
// while two losses exhaust the budget — the round fails with the typed
// member-lost error, §4.5 buddy-group recovery runs over the wire, and
// a follow-up round delivers cleanly.
//
// -dkg is the trust-complete setup smoke (CI runs it race-instrumented,
// with and without -churn): a joint-Feldman committee ceremony that
// must survive -churn members crashing mid-deal with the crashes
// attributed, a chained threshold-VRF beacon, a full dealerless network
// round (NewNetworkDKG), a resharing epoch that provably preserves the
// group public key, a store persistence round-trip that must resume the
// chain without forking, and a laggard catchup through full
// verification. Any drift fails the run.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
	"atom/internal/distributed"
	"atom/internal/protocol"
	"atom/internal/transport"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate (5, 6, 7, 9, 10, 11, 13)")
		table    = flag.Int("table", 0, "table to regenerate (3, 4, 12)")
		all      = flag.Bool("all", false, "regenerate everything")
		paper    = flag.Bool("paper", false, "use the paper's published primitive costs instead of measuring this machine")
		live     = flag.Bool("live", false, "run a real round and print per-iteration Observer stats")
		liveMsgs = flag.Int("livemsgs", 16, "messages to mix in -live/-distributed mode (per round in -serve mode)")
		liveNIZK = flag.Bool("livenizk", false, "use the NIZK variant in -live/-distributed/-serve mode (default trap)")
		workers  = flag.Int("workers", 0, "parallel mixing engine: worker goroutines per group (0 = CPUs/groups)")
		dist     = flag.Bool("distributed", false, "run a real round as message-passing actors over the latency-modeled in-memory network")
		wanMin   = flag.Duration("wanmin", 40*time.Millisecond, "-distributed: minimum pairwise one-way latency")
		wanMax   = flag.Duration("wanmax", 160*time.Millisecond, "-distributed: maximum pairwise one-way latency")
		churn    = flag.Int("churn", 0, "-distributed: kill this many members of group 0 after the first iteration (1 = degraded completion, 2 = member-lost + wire recovery)")
		serve    = flag.Bool("serve", false, "run the continuous service: a client fleet drives back-to-back pipelined rounds over the distributed cluster")
		dkgDemo  = flag.Bool("dkg", false, "trust-complete setup smoke: committee DKG under -churn, chained beacon, dealerless network round, resharing epoch, persistence round-trip, laggard catchup")
		rounds   = flag.Int("rounds", 3, "-serve: how many back-to-back rounds the fleet drives")
		inflight = flag.Int("inflight", 2, "-serve: rounds mixing concurrently")
		interval = flag.Duration("interval", 2*time.Second, "-serve: round scheduler's seal deadline (the fleet's full batches normally seal first)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof at this address under /debug/pprof/ (empty = off)")
	)
	flag.Parse()
	if *pprof != "" {
		go func() {
			if err := daemon.ServeDebug(*pprof, nil, true); err != nil {
				log.Printf("atomsim: pprof listener: %v", err)
			}
		}()
		log.Printf("atomsim: pprof on %s/debug/pprof/", *pprof)
	}
	if !*all && *fig == 0 && *table == 0 && !*live && !*dist && !*serve && !*dkgDemo {
		*all = true
	}

	if *dkgDemo {
		if err := runDKGDemo(*churn, *workers); err != nil {
			log.Fatalf("atomsim: trust-complete setup smoke FAILED: %v", err)
		}
		return
	}

	if *serve {
		if err := runServe(*rounds, *liveMsgs, *liveNIZK, *workers, *inflight, *interval, *wanMin, *wanMax); err != nil {
			log.Fatalf("atomsim: %v", err)
		}
		return
	}

	if *dist {
		if err := runDistributed(*liveMsgs, *liveNIZK, *workers, *wanMin, *wanMax, *churn); err != nil {
			log.Fatalf("atomsim: %v", err)
		}
		return
	}

	// -live measures a real round directly; skip cost-model calibration.
	ev, err := atom.NewEvaluation(!*paper && !*live)
	if err != nil {
		log.Fatalf("atomsim: calibrating: %v", err)
	}
	emit := func(s string, err error) {
		if err != nil {
			log.Fatalf("atomsim: %v", err)
		}
		fmt.Println(s)
	}

	if *live {
		variant := atom.Trap
		if *liveNIZK {
			variant = atom.NIZK
		}
		out, _, err := ev.LiveRound(atom.Config{
			Servers: 12, Groups: 4, GroupSize: 3,
			MessageSize: 64, Variant: variant, Iterations: 3,
			MixWorkers: *workers,
			Seed:       []byte("atomsim-live"),
		}, *liveMsgs)
		emit(out, err)
		return
	}

	if *all {
		emit(ev.All())
		return
	}
	switch *table {
	case 0:
	case 3:
		emit(ev.Table3(), nil)
	case 4:
		emit(ev.Table4())
	case 12:
		emit(ev.Table12())
	default:
		log.Fatalf("atomsim: no table %d (have 3, 4, 12)", *table)
	}
	switch *fig {
	case 0:
	case 5:
		emit(ev.Figure5(), nil)
	case 6:
		emit(ev.Figure6(), nil)
	case 7:
		emit(ev.Figure7(), nil)
	case 9:
		emit(ev.Figure9())
	case 10:
		emit(ev.Figure10())
	case 11:
		emit(ev.Figure11())
	case 13:
		emit(ev.Figure13())
	default:
		log.Fatalf("atomsim: no figure %d (have 5, 6, 7, 9, 10, 11, 13)", *fig)
	}
}

// submitDistributed opens a round and fills it with msgs distinct
// messages, returning the round.
func submitDistributed(d *protocol.Deployment, client *protocol.Client, variant protocol.Variant, msgs int) (*protocol.RoundState, error) {
	rs, err := d.OpenRound()
	if err != nil {
		return nil, err
	}
	for u := 0; u < msgs; u++ {
		gid := u % d.NumGroups()
		gpk, err := d.GroupPK(gid)
		if err != nil {
			return nil, err
		}
		msg := []byte(fmt.Sprintf("distributed hello %02d", u))
		switch variant {
		case protocol.VariantNIZK:
			sub, err := client.Submit(msg, gpk, gid, rand.Reader)
			if err != nil {
				return nil, err
			}
			if err := rs.SubmitUser(u, sub); err != nil {
				return nil, err
			}
		default:
			tpk, err := rs.TrusteePK()
			if err != nil {
				return nil, err
			}
			sub, err := client.SubmitTrap(msg, gpk, tpk, gid, rand.Reader)
			if err != nil {
				return nil, err
			}
			if err := rs.SubmitTrapUser(u, sub); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// runDistributed runs one full round through the distributed engine
// over the WAN-latency-modeled in-memory network and reports
// per-iteration latency/work (Observer hooks) plus per-member transport
// traffic. With churn > 0 it additionally kills members of group 0
// after the first iteration and walks whichever churn path the loss
// lands on: degraded completion within the h−1 budget, or the typed
// member-lost abort followed by §4.5 buddy-group recovery over the
// wire and a clean follow-up round.
func runDistributed(msgs int, nizk bool, workers int, wanMin, wanMax time.Duration, churn int) error {
	variant := protocol.VariantTrap
	if nizk {
		variant = protocol.VariantNIZK
	}
	cfg := protocol.Config{
		NumServers:  12,
		NumGroups:   4,
		GroupSize:   3,
		MessageSize: 64,
		Variant:     variant,
		Iterations:  3,
		Mix:         protocol.MixConfig{Workers: workers},
		Seed:        []byte("atomsim-distributed"),
	}
	if churn > 0 {
		// Churn demos need headroom: h=2 gives each group one spare
		// (chains of k−1), and buddy escrow enables §4.5 recovery.
		cfg.HonestMin = 2
		cfg.BuddyCount = 1
		if threshold := cfg.GroupSize - (cfg.HonestMin - 1); churn > threshold {
			return fmt.Errorf("churn %d exceeds group 0's %d chain members", churn, threshold)
		}
	}
	d, err := protocol.NewDeployment(cfg)
	if err != nil {
		return err
	}
	vcfg := d.Config()
	client, err := protocol.NewClient(&vcfg)
	if err != nil {
		return err
	}

	net := transport.NewMemNetwork(transport.PairwiseLatency("atomsim", wanMin, wanMax), 256)
	cluster, err := distributed.NewCluster(d, distributed.Options{
		Attach:          distributed.MemAttach(net),
		Workers:         workers,
		Heartbeat:       200 * time.Millisecond,
		LivenessTimeout: 2 * time.Second,
		Log:             log.Printf,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	rs, err := submitDistributed(d, client, variant, msgs)
	if err != nil {
		return err
	}

	fmt.Printf("distributed round: %d groups × %d members, T=%d, %s variant, %d messages, WAN %v–%v\n",
		cfg.NumGroups, cfg.GroupSize, cfg.Iterations, variant, msgs, wanMin, wanMax)
	var injectOnce sync.Once
	hooks := &protocol.RoundHooks{IterationDone: func(it protocol.IterationStats) {
		fmt.Printf("  iteration %d: %3d msgs  %8.0f ms  %4d shuffles  %4d reencs  %5d proofs  busy %v  codec %v  %d live members\n",
			it.Layer, it.Messages, float64(it.Duration.Milliseconds()), it.Shuffles, it.ReEncs, it.ProofsVerified,
			it.WorkerBusy.Round(time.Millisecond), it.Codec.Round(10*time.Microsecond), it.Members)
		if churn > 0 {
			injectOnce.Do(func() {
				threshold := cfg.GroupSize - (cfg.HonestMin - 1)
				for i := 0; i < churn; i++ {
					id := distributed.MemberID{GID: 0, Pos: threshold - 1 - i}
					fmt.Printf("  !! killing group %d member %d mid-round\n", id.GID, id.Pos)
					cluster.KillMember(id)
				}
			})
		}
	}}
	res, err := cluster.Run(context.Background(), rs, hooks)
	if err != nil {
		// The operator triage path: a member-lost abort is typed and
		// attributed, and — unlike blame or a timeout — fixable by
		// §4.5 recovery.
		lostGID, lostMember, ok := atom.LostMember(err)
		if !ok {
			return err
		}
		fmt.Printf("round aborted, member lost: group %d member %d (recovery needed: %v)\n",
			lostGID, lostMember, errors.Is(err, atom.ErrRecoveryNeeded))
		replacements := []int{1000, 1001, 1002}
		fmt.Printf("running buddy-group recovery over the wire…\n")
		if err := cluster.RecoverGroup(context.Background(), lostGID, replacements); err != nil {
			return fmt.Errorf("wire recovery: %w", err)
		}
		need, _ := d.GroupNeedsRecovery(lostGID)
		fmt.Printf("group %d recovered (needs recovery: %v); rerunning a clean round\n", lostGID, need)
		if rs, err = submitDistributed(d, client, variant, msgs); err != nil {
			return err
		}
		if res, err = cluster.Run(context.Background(), rs, hooks); err != nil {
			return err
		}
	}
	fmt.Printf("round %d mixed %d messages in %v\n", res.Round, len(res.Messages), res.Duration.Round(time.Millisecond))

	// Per-member transport traffic (the horizontally scaled bandwidth
	// story of §7: each server touches only its groups' slices).
	type row struct {
		name string
		st   transport.Stats
	}
	var rows []row
	for id, addr := range cluster.Addresses() {
		rows = append(rows, row{fmt.Sprintf("group %d member %d", id.GID, id.Pos), net.Stats(addr)})
	}
	rows = append(rows, row{"coordinator", net.Stats(cluster.CoordinatorAddr())})
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Println("per-node transport traffic:")
	for _, r := range rows {
		fmt.Printf("  %-18s  sent %8d B in %3d msgs   received %8d B\n",
			r.name, r.st.BytesSent, r.st.MessagesSent, r.st.BytesReceived)
	}
	fmt.Printf("total bytes on the wire: %d\n", net.TotalBytes())
	return nil
}

// runServe drives the continuous service end to end: a daemon with the
// ingestion frontend enabled, the distributed cluster (WAN-latency
// memnet actors, cross-round pipelining) as its mixing engine, and a
// synthetic two-connection client fleet submitting wire-encoded batches
// over TCP until nRounds rounds have published back to back.
func runServe(nRounds, perRound int, nizk bool, workers, inflight int, interval, wanMin, wanMax time.Duration) error {
	variant, vname := atom.Trap, "trap"
	if nizk {
		variant, vname = atom.NIZK, "nizk"
	}
	cfg := atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 64, Variant: variant, Iterations: 3,
		MixWorkers: workers,
		Seed:       []byte("atomsim-serve"),
	}
	srv, err := daemon.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	// The per-round pipeline trace, collected through the public
	// Observer surface: seal, first layer-0 completion, publication.
	type trace struct {
		sealed, layer0, mixed time.Time
		ingest                atom.IngestStats
		stats                 atom.RoundStats
	}
	var (
		traceMu sync.Mutex
		traces  = map[uint64]*trace{}
	)
	at := func(round uint64) *trace {
		t := traces[round]
		if t == nil {
			t = &trace{}
			traces[round] = t
		}
		return t
	}
	srv.Network().SetObserver(&atom.Observer{
		RoundSealed: func(round uint64, ing atom.IngestStats) {
			traceMu.Lock()
			t := at(round)
			t.sealed, t.ingest = time.Now(), ing
			traceMu.Unlock()
			fmt.Printf("  round %d sealed: %d admitted, %d ciphertexts, queue %d, %d in flight\n",
				round, ing.Admitted, ing.SealedBatch, ing.Queued, ing.InFlight)
		},
		IterationDone: func(it atom.IterationStats) {
			if it.Layer == 0 {
				traceMu.Lock()
				at(it.Round).layer0 = time.Now()
				traceMu.Unlock()
			}
		},
		RoundMixed: func(st atom.RoundStats) {
			traceMu.Lock()
			t := at(st.Round)
			t.mixed, t.stats = time.Now(), st
			traceMu.Unlock()
		},
	})

	net := transport.NewMemNetwork(transport.PairwiseLatency("atomsim-serve", wanMin, wanMax), 256)
	cluster, err := distributed.NewCluster(srv.Network().Deployment(), distributed.Options{
		Attach:  distributed.MemAttach(net),
		Workers: workers,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	ctx := context.Background()
	if err := srv.EnableService(ctx, atom.ServeOptions{
		RoundInterval: interval,
		MaxBatch:      perRound,
		MaxInFlight:   inflight,
		Mixer:         cluster,
	}); err != nil {
		return err
	}
	go srv.Serve()

	fmt.Printf("continuous service: %d rounds × %d msgs, %s variant, T=%d, %d in flight, WAN %v–%v\n",
		nRounds, perRound, vname, cfg.Iterations, inflight, wanMin, wanMax)

	// The fleet: two client connections sharing each round's batch.
	const fleet = 2
	clients := make([]*daemon.Client, fleet)
	for i := range clients {
		if clients[i], err = daemon.Dial(srv.Addr()); err != nil {
			return err
		}
		defer clients[i].Close()
	}
	info, err := clients[0].Info(ctx)
	if err != nil {
		return err
	}
	enc, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: info.Groups, GroupSize: 1,
		MessageSize: info.MessageSize, Variant: variant, Iterations: 1,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	var roundIDs []uint64
	for r := 0; r < nRounds; r++ {
		// Fetch the open round; after a full batch sealed the previous
		// one, the scheduler rotates within microseconds — spin briefly.
		var ri *daemon.RoundInfo
		for {
			if ri, err = clients[0].ServeInfo(ctx); err != nil {
				return err
			}
			if len(roundIDs) == 0 || ri.ID != roundIDs[len(roundIDs)-1] {
				break
			}
			time.Sleep(time.Millisecond)
		}
		roundIDs = append(roundIDs, ri.ID)
		var wg sync.WaitGroup
		errs := make([]error, fleet)
		per := perRound / fleet
		for c := 0; c < fleet; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				n := per
				if c == fleet-1 {
					n = perRound - per*(fleet-1)
				}
				base := r*perRound + c*per
				msgs := make([][]byte, n)
				for i := range msgs {
					msgs[i] = fmt.Appendf(nil, "serve r%02d u%03d", r, base+i)
				}
				_, errs[c] = daemon.SubmitBatch(ctx, clients[c], enc, info, ri, base, msgs)
			}(c)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return fmt.Errorf("fleet submission into round %d: %w", ri.ID, e)
			}
		}
	}

	// Collect every round's publication over the wire.
	total := 0
	for _, rid := range roundIDs {
		msgs, err := clients[0].Await(ctx, rid)
		if err != nil {
			return fmt.Errorf("awaiting round %d: %w", rid, err)
		}
		total += len(msgs)
	}
	elapsed := time.Since(start)

	fmt.Println("per-round pipeline trace:")
	traceMu.Lock()
	overlaps := 0
	for i, rid := range roundIDs {
		t := traces[rid]
		if t == nil || t.sealed.IsZero() {
			continue
		}
		line := fmt.Sprintf("  round %d: %d msgs, seal→publish %v (mixing %v)",
			rid, t.stats.Messages, t.mixed.Sub(t.sealed).Round(time.Millisecond), t.stats.Duration.Round(time.Millisecond))
		if i > 0 {
			if prev := traces[roundIDs[i-1]]; prev != nil && !t.layer0.IsZero() && t.layer0.Before(prev.mixed) {
				line += "  [layer 0 mixed before round " + fmt.Sprint(roundIDs[i-1]) + " published — pipelined]"
				overlaps++
			}
		}
		fmt.Println(line)
	}
	traceMu.Unlock()
	fmt.Printf("cross-round overlap observed in %d of %d round pairs\n", overlaps, len(roundIDs)-1)
	fmt.Printf("sustained: %.1f msgs/sec, %.1f rounds/min over %v (%d messages, %d rounds)\n",
		float64(total)/elapsed.Seconds(), float64(len(roundIDs))/elapsed.Minutes(), elapsed.Round(time.Millisecond), total, len(roundIDs))
	return nil
}
