// Command faultrecovery demonstrates Atom's churn tolerance (paper
// §4.5): many-trust groups absorb up to h−1 failures without missing a
// beat, and buddy-group share escrow recovers a group that loses more.
//
//	go run ./examples/faultrecovery
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"atom"
)

func main() {
	// h = 2: groups of 4 where any 3 members can mix (threshold keys via
	// DVSS), each group escrowing its shares with 2 buddy groups.
	net, err := atom.NewNetwork(atom.Config{
		Servers:       16,
		Groups:        4,
		GroupSize:     4,
		HonestServers: 2,
		Buddies:       2,
		MessageSize:   64,
		Variant:       atom.NIZK,
		Iterations:    3,
		Seed:          []byte("faultrecovery-demo"),
	})
	if err != nil {
		log.Fatalf("building network: %v", err)
	}

	ctx := context.Background()
	// mixRound opens a round, submits eight messages and mixes it.
	mixRound := func() (*atom.Result, error) {
		round, err := net.OpenRound(ctx)
		if err != nil {
			log.Fatalf("opening round: %v", err)
		}
		for user := 0; user < 8; user++ {
			msg := fmt.Sprintf("resilient message %d", user)
			if err := round.Submit(user, []byte(msg)); err != nil {
				log.Fatalf("user %d: %v", user, err)
			}
		}
		return round.Mix(ctx)
	}

	// --- Round 1: one crash per group is within the h−1 budget. ---
	fmt.Println("round 1: crashing one member of every group (within budget)")
	for gid := 0; gid < net.Groups(); gid++ {
		if err := net.FailGroupMember(gid, 1); err != nil {
			log.Fatal(err)
		}
	}
	res, err := mixRound()
	if err != nil {
		log.Fatalf("round 1 should have survived: %v", err)
	}
	fmt.Printf("round 1 delivered %d messages despite 4 crashed servers\n\n", len(res.Messages))

	// --- Round 2: a second crash in group 0 exceeds the budget. ---
	fmt.Println("round 2: crashing a second member of group 0 (beyond budget)")
	if err := net.FailGroupMember(0, 2); err != nil {
		log.Fatal(err)
	}
	need, err := net.NeedsRecovery(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("group 0 needs recovery: %v\n", need)

	// Attempting to mix with a dead group fails with a typed error the
	// operator can match on — errors.Is, not string parsing. The aborted
	// round is spent; users resubmit into the next one.
	if _, err := mixRound(); !errors.Is(err, atom.ErrRecoveryNeeded) {
		log.Fatalf("expected ErrRecoveryNeeded, got: %v", err)
	}
	fmt.Println("mixing refused: errors.Is(err, atom.ErrRecoveryNeeded) — recovering…")

	// Buddy-group recovery: replacement servers collect escrowed share
	// pieces from a live buddy group, reconstruct the lost shares, and
	// verify them against the group's public commitments.
	if err := net.Recover(0, []int{100, 101}); err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	need, _ = net.NeedsRecovery(0)
	fmt.Printf("after buddy-group recovery, group 0 needs recovery: %v\n", need)

	res, err = mixRound()
	if err != nil {
		log.Fatalf("post-recovery round failed: %v", err)
	}
	fmt.Printf("round 2 delivered %d messages with the recovered group\n", len(res.Messages))
	fmt.Println("\nThe group key never changed: users and neighbor groups were")
	fmt.Println("untouched by the failure — exactly the paper's design goal.")
}
