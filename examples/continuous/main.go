// Command continuous demonstrates the continuous service pipeline: a
// Network served by a round scheduler (seal at deadline or at target
// batch size), the microblog application posting into whichever round
// is open, and each published round landing on the bulletin board —
// no explicit Mix call anywhere.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"atom"
)

func main() {
	net, err := atom.NewNetwork(atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: atom.MicroblogMessageSize,
		Variant:     atom.Trap,
		Iterations:  3,
		Seed:        []byte("example-continuous"),
	})
	if err != nil {
		log.Fatal(err)
	}
	mb, err := atom.NewMicroblog(net)
	if err != nil {
		log.Fatal(err)
	}

	// Seal whenever 6 posts have landed (or after 2s of quiet); mix up
	// to two rounds back to back.
	svc, err := net.Serve(context.Background(), atom.ServeOptions{
		RoundInterval: 2 * time.Second,
		MaxBatch:      6,
		MaxInFlight:   2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Posters fire and forget: the scheduler decides when their round
	// seals. Three rounds' worth of posts, submitted back to back.
	posts := []string{
		"round-tripping the first batch", "anonymity loves company",
		"the mix is never idle", "sealed at capacity, not by hand",
		"post number five", "post number six",
		"the second round is already open", "while the first one mixes",
		"layer 0 of round two overlaps", "round one's later layers",
		"eleventh post", "twelfth post",
		"a third round", "rides the same pipeline", "without waiting",
		"for anything", "to drain", "first",
	}
	for i, text := range posts {
		if err := mb.PostOpen(svc, i, text); err != nil {
			log.Fatalf("post %d: %v", i, err)
		}
	}

	// Drain published rounds off the results stream onto the board
	// until every post is up. How the posts split into rounds is the
	// scheduler's call: a seal trails the admission that triggers it,
	// so a fast poster lands more than MaxBatch posts in one round.
	rounds := 0
	for left := len(posts); left > 0; rounds++ {
		out := <-svc.Results()
		published, err := mb.PublishOutcome(&out)
		if err != nil {
			log.Fatalf("round %d: %v", out.Round, err)
		}
		left -= len(published)
		fmt.Printf("round %d published %d posts (batch of %d admitted, %d in flight at seal)\n",
			out.Round, len(published), out.Stats.Ingest.Admitted, out.Stats.Ingest.InFlight)
	}
	svc.Close()

	board := mb.Board()
	fmt.Printf("bulletin board holds %d posts across %d rounds\n", len(board), rounds)
	for _, p := range board[:3] {
		fmt.Printf("  r%d/%d: %s\n", p.Round, p.Seq, p.Message)
	}
}
