// Command atomd hosts an Atom deployment behind a TCP endpoint: it
// forms the anytrust groups, runs their distributed key generation, and
// serves the continuous ingestion pipeline to remote atomclient
// instances: submissions are admitted into whichever round is open
// (proof verification and duplicate rejection at admission time), the
// round scheduler seals at -interval or -capacity, and sealed rounds mix
// back to back with up to -inflight in flight.
//
//	atomd -listen :9000 -servers 12 -groups 4 -groupsize 3 -variant trap
//	atomd -listen :9000 -interval 500ms -capacity 1024 -fastpath :9001
//
// Clients keep all secrets: they encrypt and prove locally and ship
// opaque submissions (see cmd/atomclient), over gob requests or, with
// -fastpath, the multiplexed binary submit listener.
//
// -members hands sealed rounds to a fleet of pre-started atomd -member
// hosts instead of the in-process engine (addresses GID-major, one per
// member):
//
//	atomd -listen :9000 -members host1:9100,host1:9101,…
//
// With -member, atomd instead hosts one group member of a distributed
// round engine (internal/distributed.HostMember): it listens on a TCP
// endpoint holding no key material, adopts the config a coordinator
// sends it, and serves mixing rounds as a message-passing actor until
// interrupted:
//
//	atomd -member -listen :9100
//
// The coordinating process builds a distributed.Cluster whose
// Options.Remote map points at these addresses. Everything churn-
// related — the member's heartbeat period, the coordinator's liveness
// timeout, re-planning after a loss, buddy-group recovery — is the
// coordinator's business and arrives in the config message; a -member
// process needs no tuning flags.
//
// Durable state (-state-dir): with a state directory, atomd persists
// its durable material in an fsync'd journal (internal/store) — a
// member's config every time it adopts one, a coordinator's key
// material, sealed batches and published outcomes — and a restarted
// process replays it: a -member host boots already configured under its
// old identity at its old address and announces the rejoin, and because
// its acks told the coordinator it persists its config, the coordinator
// waits for it (30 s) and re-admits it without burning h−1 budget; a
// full-mode coordinator restores its keys and re-dispatches any
// sealed-but-unmixed rounds instead of re-running the DKG. Without
// -state-dir a crash falls back to the live churn path: loss detection,
// re-planning, buddy recovery.
//
// With -dkg, setup establishes trust without a dealer: a joint-Feldman
// ceremony elects a beacon committee whose threshold VRF drives a
// chained, publicly verifiable randomness beacon; group formation
// samples from a produced beacon round; and every group's threshold key
// comes from its own per-group ceremony, so no party ever holds a group
// secret. -beacon-interval keeps producing verified rounds while
// serving. With -state-dir the trust transcript and every beacon round
// journal too, and a restart re-validates the transcript and RESUMES
// the chain (deterministic partials make the restart fork-free):
//
//	atomd -listen :9000 -dkg -beacon-interval 30s -state-dir /var/lib/atomd
//
// A group-config file (-config, JSON — see store.GroupConfig) replaces
// the roster/topology/crypto flags, and its canonical hash rides every
// config message: a coordinator and members started from the same file
// join, a member started with one file refuses a coordinator started
// from another (atom.ErrConfigMismatch).
//
// -metrics serves Prometheus text-format counters at /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"atom"
	"atom/internal/daemon"
	"atom/internal/distributed"
	"atom/internal/store"
	"atom/internal/transport"
)

func main() {
	var (
		listen      = flag.String("listen", ":9000", "TCP listen address")
		servers     = flag.Int("servers", 12, "server roster size N")
		groups      = flag.Int("groups", 4, "number of anytrust groups G")
		groupSize   = flag.Int("groupsize", 3, "servers per group k")
		honest      = flag.Int("honest", 1, "required honest servers per group h (tolerates h-1 failures)")
		messageSize = flag.Int("msgsize", 160, "fixed message size in bytes")
		variant     = flag.String("variant", "trap", "active-attack defense: nizk or trap")
		iterations  = flag.Int("iterations", 3, "mixing iterations T")
		topo        = flag.String("topology", "square", "permutation network: square or butterfly")
		workers     = flag.Int("workers", 0, "parallel mixing engine: worker goroutines per group (0 = CPUs/groups)")
		seed        = flag.String("seed", "atomd", "beacon seed (all participants must agree)")
		verbose     = flag.Bool("verbose", true, "log per-round and per-iteration statistics")
		member      = flag.Bool("member", false, "host one distributed-round group member instead of a full deployment")
		interval    = flag.Duration("interval", time.Second, "round scheduler's seal deadline (Options.RoundInterval)")
		capacity    = flag.Int("capacity", 0, "seal a round early at this many submissions (0 = deadline only)")
		inflight    = flag.Int("inflight", 2, "rounds mixing concurrently (bounded pipeline depth; with -members, rounds in flight over the fleet)")
		membersF    = flag.String("members", "", "comma-separated addresses of pre-started atomd -member hosts, GID-major (g0/m0,g0/m1,…): coordinate distributed rounds over them instead of mixing in-process")
		fastAddr    = flag.String("fastpath", "", "multiplexed binary submit listener address (\":0\" = ephemeral; advertised to clients via Info)")
		stateDir    = flag.String("state-dir", "", "persist durable state (journal + snapshots) here and resume from it on restart")
		dkgMode     = flag.Bool("dkg", false, "establish trust with the dealerless setup ceremony: per-group joint-Feldman DKGs and a chained verifiable randomness beacon (persisted and resumed with -state-dir)")
		dkgWindow   = flag.Duration("dkg-window", 500*time.Millisecond, "-dkg: per-phase ceremony message window (honest phases early-advance; this bounds the straggler wait)")
		beaconTick  = flag.Duration("beacon-interval", 0, "-dkg: produce a verified beacon round this often (0 = only the setup rounds)")
		configPath  = flag.String("config", "", "group-config file (JSON); replaces the roster/topology/crypto flags and gates joins by its hash")
		metricsAddr = flag.String("metrics", "", "serve Prometheus text-format counters at this address under /metrics (empty = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof at this address under /debug/pprof/ (empty = off; may equal -metrics to share one listener)")
	)
	flag.Parse()

	var gc *store.GroupConfig
	var configHash []byte // nil without -config: the fleet is not gated
	if *configPath != "" {
		var err error
		if gc, err = store.LoadGroupConfig(*configPath); err != nil {
			log.Fatalf("atomd: %v", err)
		}
		configHash = gc.Hash()
	}

	if *member {
		hostMember(*listen, *stateDir, *metricsAddr, *pprofAddr, configHash)
		return
	}

	var cfg atom.Config
	if gc != nil {
		cfg = configFromFile(gc)
		log.Printf("atomd: group config %s (hash %x)", *configPath, configHash[:8])
	} else {
		v := atom.Trap
		switch *variant {
		case "trap":
		case "nizk":
			v = atom.NIZK
		default:
			log.Fatalf("atomd: unknown variant %q (want nizk or trap)", *variant)
		}
		cfg = atom.Config{
			Servers:       *servers,
			Groups:        *groups,
			GroupSize:     *groupSize,
			HonestServers: *honest,
			MessageSize:   *messageSize,
			Variant:       v,
			Iterations:    *iterations,
			Topology:      *topo,
			MixWorkers:    *workers,
			Seed:          []byte(*seed),
		}
	}

	var st *store.Store
	if *stateDir != "" {
		var err error
		if st, err = store.Open(*stateDir); err != nil {
			log.Fatalf("atomd: opening state dir: %v", err)
		}
		defer st.Close()
	}

	// Build the network: restored from the journal when the state dir
	// holds a deployment record, a fresh DKG otherwise (persisted
	// immediately, so the next start restores).
	var network *atom.Network
	if st != nil {
		if state := st.State(); len(state.Deployment) > 0 {
			var err error
			if network, err = atom.RestoreNetwork(cfg, state.Deployment, state.MaxRound()); err != nil {
				log.Fatalf("atomd: restoring from %s: %v", *stateDir, err)
			}
			m := st.Metrics()
			log.Printf("atomd: restored keys and %d pending sealed rounds from %s (%d records in %v)",
				len(st.PendingSealed()), *stateDir, m.ReplayRecords, m.ReplayDuration)
			// A trust transcript in the journal means this deployment was
			// set up dealerless: re-validate it and RESUME the beacon
			// chain (deterministic partials make a restart fork-free).
			if state.DKG != nil {
				if err := network.RestoreTrust(st); err != nil {
					log.Fatalf("atomd: restoring trust transcript: %v", err)
				}
				head, _ := network.BeaconChain().Head()
				log.Printf("atomd: beacon chain resumed at round %d", head)
			}
		}
	}
	if network == nil {
		log.Printf("atomd: forming %d groups of %d from %d servers (T=%d)…",
			cfg.Groups, cfg.GroupSize, cfg.Servers, cfg.Iterations)
		var err error
		if *dkgMode {
			log.Printf("atomd: dealerless setup: committee DKG, verifiable beacon, per-group ceremonies (window %v)…", *dkgWindow)
			network, err = atom.NewNetworkDKG(cfg, *dkgWindow)
		} else {
			network, err = atom.NewNetwork(cfg)
		}
		if err != nil {
			log.Fatalf("atomd: %v", err)
		}
		if st != nil {
			if err := st.PutDeployment(network.MarshalState()); err != nil {
				log.Fatalf("atomd: persisting keys: %v", err)
			}
			if *dkgMode {
				if err := network.PersistTrust(st); err != nil {
					log.Fatalf("atomd: persisting trust transcript: %v", err)
				}
			}
			if err := st.PutEpoch(0, configHash); err != nil {
				log.Fatalf("atomd: persisting epoch: %v", err)
			}
		}
	}

	srv, err := daemon.NewServerWith(*listen, cfg, network)
	if err != nil {
		log.Fatalf("atomd: %v", err)
	}

	var obs *atom.Observer
	if *verbose {
		obs = verboseObserver()
	}
	var m *daemon.Metrics
	if *metricsAddr != "" {
		m = daemon.NewMetrics()
		if st != nil {
			m.SetStore(st)
		}
		obs = m.Instrument(obs)
		go func() {
			if err := daemon.ServeDebug(*metricsAddr, m, *pprofAddr == *metricsAddr); err != nil {
				log.Printf("atomd: metrics listener: %v", err)
			}
		}()
		log.Printf("atomd: metrics on %s/metrics", *metricsAddr)
	}
	if *pprofAddr != "" && *pprofAddr != *metricsAddr {
		go func() {
			if err := daemon.ServeDebug(*pprofAddr, nil, true); err != nil {
				log.Printf("atomd: pprof listener: %v", err)
			}
		}()
		log.Printf("atomd: pprof on %s/debug/pprof/", *pprofAddr)
	}
	if obs != nil {
		srv.Network().SetObserver(obs)
	}

	if *beaconTick > 0 {
		if network.BeaconChain() == nil {
			log.Fatalf("atomd: -beacon-interval needs a beacon committee: start with -dkg (or restore a -dkg state dir)")
		}
		go func() {
			// Each tick is produced by the committee's threshold VRF,
			// verified, appended, and (with -state-dir) journaled by the
			// chain's append hook.
			for range time.Tick(*beaconTick) {
				head, err := network.BeaconTick()
				if err != nil {
					log.Printf("atomd: beacon tick: %v", err)
					continue
				}
				if *verbose {
					log.Printf("atomd: beacon round %d produced", head)
				}
			}
		}()
		log.Printf("atomd: producing beacon rounds every %v", *beaconTick)
	}

	// The round scheduler seals at -interval (or -capacity) and rounds mix
	// back to back, up to -inflight concurrently; clients use
	// ServeInfo/SubmitInto/Await. With a state dir the pipeline journals
	// through it: seals before dispatch, outcomes on publish, pending
	// rounds re-dispatched at the next start.
	opts := atom.ServeOptions{
		RoundInterval: *interval,
		MaxBatch:      *capacity,
		MaxInFlight:   *inflight,
	}
	if st != nil {
		opts.Journal = st
	}
	if *membersF != "" {
		// Remote fleet: every group member is a pre-started
		// `atomd -member` host; this daemon only coordinates.
		remote, err := memberBook(*membersF, cfg.Groups, cfg.GroupSize)
		if err != nil {
			log.Fatalf("atomd: -members: %v", err)
		}
		cluster, err := distributed.NewCluster(srv.Network().Deployment(), distributed.Options{
			Attach:     distributed.TCPAttach(coordHost(*listen)),
			Remote:     remote,
			Workers:    *workers,
			ConfigHash: configHash,
			Log:        log.Printf,
		})
		if err != nil {
			log.Fatalf("atomd: joining member fleet: %v", err)
		}
		defer cluster.Close()
		opts.Mixer = cluster
		log.Printf("atomd: distributed rounds over %d remote members", len(remote))
	}
	if err := srv.EnableService(context.Background(), opts); err != nil {
		log.Fatalf("atomd: starting continuous service: %v", err)
	}
	log.Printf("atomd: continuous service up (interval %v, capacity %d, %d rounds in flight)",
		*interval, *capacity, *inflight)
	if *fastAddr != "" {
		fa, err := srv.EnableFastPath(*fastAddr, daemon.FastPathOptions{Metrics: m})
		if err != nil {
			log.Fatalf("atomd: fast path listener: %v", err)
		}
		log.Printf("atomd: binary submit path on %s", fa)
	}
	fmt.Printf("atomd: serving on %s\n", srv.Addr())

	go srv.Serve()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Println("atomd: shutting down")
	if err := srv.Close(); err != nil {
		log.Fatalf("atomd: close: %v", err)
	}
}

// memberBook parses -members: G·k comma-separated addresses, GID-major
// (group 0's k members first), one per pre-started atomd -member host.
func memberBook(list string, groups, groupSize int) (map[distributed.MemberID]string, error) {
	addrs := strings.Split(list, ",")
	if len(addrs) != groups*groupSize {
		return nil, fmt.Errorf("got %d addresses, want groups×groupsize = %d×%d = %d",
			len(addrs), groups, groupSize, groups*groupSize)
	}
	book := make(map[distributed.MemberID]string, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("address %d is empty", i)
		}
		book[distributed.MemberID{GID: i / groupSize, Pos: i % groupSize}] = a
	}
	return book, nil
}

// coordHost picks the host the round coordinator binds its ephemeral
// endpoint to — the -listen host, so the address shipped in join
// messages is reachable wherever the daemon itself is. A bare ":port"
// listen falls back to loopback; cross-machine fleets must give
// -listen an explicit host.
func coordHost(listen string) string {
	if host, _, err := net.SplitHostPort(listen); err == nil && host != "" {
		return host
	}
	return "127.0.0.1"
}

// configFromFile maps the operator's group-config file onto the public
// Config.
func configFromFile(gc *store.GroupConfig) atom.Config {
	v := atom.NIZK
	if gc.Variant == "trap" {
		v = atom.Trap
	}
	return atom.Config{
		Servers:       gc.Servers,
		Groups:        gc.Groups,
		GroupSize:     gc.GroupSize,
		HonestServers: gc.Honest,
		MessageSize:   gc.MessageSize,
		Variant:       v,
		Iterations:    gc.Iterations,
		Topology:      gc.Topology,
		MixWorkers:    gc.Workers,
		Buddies:       gc.Buddies,
		Seed:          []byte(gc.Seed),
	}
}

// verboseObserver is the -verbose round-lifecycle logger.
func verboseObserver() *atom.Observer {
	return &atom.Observer{
		RoundOpened: func(round uint64) {
			log.Printf("atomd: round %d open for submissions", round)
		},
		RoundSealed: func(round uint64, ing atom.IngestStats) {
			log.Printf("atomd: round %d sealed: %d admitted, %d rejected, %d ciphertexts; queue depth %d, %d rounds in flight",
				round, ing.Admitted, ing.Rejected, ing.SealedBatch, ing.Queued, ing.InFlight)
		},
		IterationDone: func(it atom.IterationStats) {
			log.Printf("atomd: round %d iteration %d: %d msgs in %v (%d proofs, %d workers/group at %.0f%% utilization, %v in the hop codec, %d live members)",
				it.Round, it.Layer, it.Messages, it.Duration, it.ProofsVerified,
				it.Workers, 100*it.Utilization(), it.Codec.Round(time.Microsecond), it.Members)
		},
		RoundMixed: func(st atom.RoundStats) {
			log.Printf("atomd: round %d mixed: %d msgs in %v over %d iterations (%d admitted, %d rejected at ingest)",
				st.Round, st.Messages, st.Duration, st.Iterations, st.Ingest.Admitted, st.Ingest.Rejected)
		},
		RoundFailed: func(round uint64, err error) {
			// Operator triage: blame (a malicious server — exclude
			// it), member-lost (a crash — recover), and everything
			// else (cancellation, trap trip) are different runbooks.
			switch {
			case errors.Is(err, atom.ErrProofRejected):
				gid, member, _ := atom.BlamedMember(err)
				log.Printf("atomd: round %d FAILED: proof rejected — group %d member %d is misbehaving: %v", round, gid, member, err)
			case errors.Is(err, atom.ErrMemberLost):
				gid, member, _ := atom.LostMember(err)
				log.Printf("atomd: round %d FAILED: member lost — group %d member %d crashed (recovery needed: %v): %v",
					round, gid, member, errors.Is(err, atom.ErrRecoveryNeeded), err)
			default:
				log.Printf("atomd: round %d FAILED: %v", round, err)
			}
		},
	}
}

// hostMember serves one distributed-round member actor over TCP until
// interrupted. The member's key material and wiring arrive in the
// coordinator's config message — or, with -state-dir, replay from the
// journal so a crashed host resumes its old identity at its old
// address.
func hostMember(listen, stateDir, metricsAddr, pprofAddr string, configHash []byte) {
	node, err := transport.ListenTCP(listen, 4096)
	if err != nil {
		log.Fatalf("atomd: %v", err)
	}

	opts := distributed.HostOptions{ConfigHash: configHash}
	var st *store.Store
	if stateDir != "" {
		if st, err = store.Open(stateDir); err != nil {
			log.Fatalf("atomd: opening state dir: %v", err)
		}
		defer st.Close()
		opts.OnConfig = st.PutMember
		opts.Resume = st.State().Member
	}
	if configHash != nil {
		log.Printf("atomd: member gated on group-config hash %x", configHash[:8])
	}
	if metricsAddr != "" {
		m := daemon.NewMetrics()
		if st != nil {
			m.SetStore(st)
		}
		go func() {
			if err := daemon.ServeDebug(metricsAddr, m, pprofAddr == metricsAddr); err != nil {
				log.Printf("atomd: metrics listener: %v", err)
			}
		}()
		log.Printf("atomd: metrics on %s/metrics", metricsAddr)
	}
	if pprofAddr != "" && pprofAddr != metricsAddr {
		go func() {
			if err := daemon.ServeDebug(pprofAddr, nil, true); err != nil {
				log.Printf("atomd: pprof listener: %v", err)
			}
		}()
		log.Printf("atomd: pprof on %s/debug/pprof/", pprofAddr)
	}
	if len(opts.Resume) > 0 {
		fmt.Printf("atomd: member actor resuming on %s from %s (rejoining fleet)\n", node.Addr(), stateDir)
	} else {
		fmt.Printf("atomd: member actor listening on %s (waiting for a coordinator's config)\n", node.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- distributed.HostMember(ctx, node, opts) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		log.Println("atomd: member shutting down")
		cancel()
		<-done
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			log.Fatalf("atomd: member: %v", err)
		}
	}
	node.Close()
}
