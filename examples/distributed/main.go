// Example distributed: the full Atom round as message-passing actors.
//
// The in-process Deployment mixes every group by direct method calls;
// the distributed engine (internal/distributed) runs the identical
// round — same member engine, same proofs, same error taxonomy — as
// independent member actors exchanging framed messages over a
// transport. This walkthrough runs the same deployment three ways:
//
//  1. in-process (the reference result),
//  2. actors over the in-memory network with a scaled-down WAN latency
//     model (the paper's §6 emulated 40–160 ms links),
//  3. actors over real TCP loopback sockets, with one member hosted the
//     way `atomd -member` hosts it: a separately started HostMember.
//
// All three recover exactly the same plaintext set.
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"time"

	"atom/internal/distributed"
	"atom/internal/protocol"
	"atom/internal/transport"
)

func main() {
	cfg := protocol.Config{
		NumServers:  12,
		NumGroups:   3,
		GroupSize:   2,
		MessageSize: 32,
		Variant:     protocol.VariantNIZK,
		Iterations:  3,
		Seed:        []byte("example-distributed"),
	}
	d, err := protocol.NewDeployment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	vcfg := d.Config()
	client, err := protocol.NewClient(&vcfg)
	if err != nil {
		log.Fatal(err)
	}

	submit := func(rs *protocol.RoundState) {
		for u := 0; u < 6; u++ {
			gid := u % d.NumGroups()
			gpk, _ := d.GroupPK(gid)
			sub, err := client.Submit([]byte(fmt.Sprintf("hello-%d", u)), gpk, gid, rand.Reader)
			if err != nil {
				log.Fatal(err)
			}
			if err := rs.SubmitUser(u, sub); err != nil {
				log.Fatal(err)
			}
		}
	}

	// --- 1. Reference: the in-process mixer. ---
	rs, _ := d.OpenRound()
	submit(rs)
	res, err := d.RunRoundCtx(context.Background(), rs, nil)
	if err != nil {
		log.Fatal(err)
	}
	reference := fmt.Sprintf("%q", res.Messages)
	fmt.Printf("in-process:    %d messages in %v: %s\n", len(res.Messages), res.Duration.Round(time.Millisecond), reference)

	// --- 2. The same round over the latency-modeled memnet. ---
	// Every group member becomes an actor; batches hop between groups
	// over links with deterministic pairwise delay.
	net := transport.NewMemNetwork(transport.PairwiseLatency("example", 2*time.Millisecond, 8*time.Millisecond), 256)
	mem, err := distributed.NewCluster(d, distributed.Options{Attach: distributed.MemAttach(net)})
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()
	rs, _ = d.OpenRound()
	submit(rs)
	res, err = mem.Run(context.Background(), rs, &protocol.RoundHooks{
		IterationDone: func(it protocol.IterationStats) {
			fmt.Printf("  memnet iteration %d: %d msgs, %d proofs, %v\n", it.Layer, it.Messages, it.ProofsVerified, it.Duration.Round(time.Millisecond))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("memnet actors: %d messages in %v (%d B on the wire, set match: %v)\n",
		len(res.Messages), res.Duration.Round(time.Millisecond), net.TotalBytes(), fmt.Sprintf("%q", res.Messages) == reference)

	// --- 3. Real sockets: TCP loopback, one member hosted remotely. ---
	// The remote member is exactly what `atomd -member -listen :9100`
	// runs: a HostMember loop on a TCP endpoint that boots holding no
	// config and adopts the one the coordinator sends — which is also
	// how the cluster brings up the members it hosts itself.
	remote, err := transport.ListenTCP("127.0.0.1:0", 1024)
	if err != nil {
		log.Fatal(err)
	}
	hostCtx, stopHost := context.WithCancel(context.Background())
	defer stopHost()
	go func() { _ = distributed.HostMember(hostCtx, remote, distributed.HostOptions{}) }()

	tcp, err := distributed.NewCluster(d, distributed.Options{
		Attach: distributed.TCPAttach("127.0.0.1"),
		Remote: map[distributed.MemberID]string{{GID: 1, Pos: 1}: remote.Addr()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tcp.Close()
	rs, _ = d.OpenRound()
	submit(rs)
	res, err = tcp.Run(context.Background(), rs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcp actors:    %d messages in %v (member g1/m1 hosted at %s, set match: %v)\n",
		len(res.Messages), res.Duration.Round(time.Millisecond), remote.Addr(), fmt.Sprintf("%q", res.Messages) == reference)
}
