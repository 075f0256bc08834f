// Command atomclient is the user side of an atomd deployment: it
// fetches the deployment's public keys and the open round, performs all
// cryptography locally (padding, onion encryption, proof of plaintext
// knowledge, and — in the trap variant — trap generation and
// commitment), ships the opaque submissions into whichever round the
// daemon's continuous service has open (re-fetching when a round seals
// mid-batch), and with -await waits for the rounds that admitted them to
// publish. Every request is bounded by -timeout, so a dead daemon fails
// fast instead of hanging.
//
//	atomclient -server host:9000 -user 3 -submit "hello world" -await
//
// One process drives load over one connection: -count replicates
// -submit, -submit-file reads one message per line, and users count up
// from -user:
//
//	atomclient -server host:9000 -submit "load %d" -count 256 -await
//	atomclient -server host:9000 -submit-file messages.txt
//
// When the daemon advertises a fast path (atomd -fastpath, through
// Info), the batch rides its multiplexed binary submit path instead of
// one gob RPC per message: submissions are pipelined over a single
// connection and verdicts arrive as coalesced async acks, so one process
// drives thousands of logical users at wire speed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
)

func main() {
	var (
		server  = flag.String("server", "127.0.0.1:9000", "atomd address")
		user    = flag.Int("user", 0, "user id of the first message (picks the entry group: user mod G)")
		submit  = flag.String("submit", "", "message to submit")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-request deadline")
		count   = flag.Int("count", 1, "submit this many copies of -submit (a %d in the text becomes the message index)")
		file    = flag.String("submit-file", "", "submit every line of this file as one message")
		await   = flag.Bool("await", false, "wait for the rounds that admitted the batch to publish and print them")
	)
	flag.Parse()
	if *submit == "" && *file == "" {
		log.Fatal("atomclient: nothing to do (use -submit or -submit-file)")
	}

	ctx := context.Background()
	cli, err := daemon.Dial(*server)
	if err != nil {
		log.Fatalf("atomclient: %v", err)
	}
	defer cli.Close()

	rctx, cancel := context.WithTimeout(ctx, *timeout)
	info, err := cli.Info(rctx)
	cancel()
	if err != nil {
		log.Fatalf("atomclient: fetching deployment info: %v", err)
	}

	msgs := buildBatch(*submit, *file, *count)
	variant := atom.NIZK
	if info.Trap {
		variant = atom.Trap
	}
	// Only the fields the client-side crypto needs must match the
	// daemon; keys arrive over the wire.
	ac, err := atom.NewClient(atom.Config{
		Servers: 1, Groups: info.Groups, GroupSize: 1,
		MessageSize: info.MessageSize, Variant: variant, Iterations: 1,
	})
	if err != nil {
		log.Fatalf("atomclient: %v", err)
	}

	var admitted []uint64
	if info.SubmitAddr != "" {
		admitted = fastIngestBatch(ctx, info, ac, *user, msgs, *timeout)
	} else {
		admitted = ingestBatch(ctx, cli, ac, info, *user, msgs, *timeout)
	}
	if *await {
		for _, rid := range admitted {
			rctx, cancel := context.WithTimeout(ctx, *timeout)
			out, err := cli.Await(rctx, rid)
			cancel()
			if err != nil {
				log.Fatalf("atomclient: awaiting round %d: %v", rid, err)
			}
			fmt.Printf("round %d published:\n", rid)
			printMessages(out)
		}
	}
}

// buildBatch assembles the messages of one batch submission: every line
// of -submit-file, or -count copies of -submit (a %d in the text is
// replaced by the message index so the copies stay distinct — identical
// plaintexts are legal, but identical wire submissions would never
// occur anyway since encryption is randomized).
func buildBatch(submit, file string, count int) [][]byte {
	var msgs [][]byte
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatalf("atomclient: %v", err)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			if line != "" {
				msgs = append(msgs, []byte(line))
			}
		}
		if len(msgs) == 0 {
			log.Fatalf("atomclient: %s holds no messages", file)
		}
		return msgs
	}
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		text := submit
		if strings.Contains(text, "%d") {
			text = strings.ReplaceAll(text, "%d", fmt.Sprint(i))
		} else if count > 1 {
			text = fmt.Sprintf("%s #%d", text, i)
		}
		msgs = append(msgs, []byte(text))
	}
	return msgs
}

// ingestBatch drives a batch into the continuous service: it fetches
// the open round, submits until the round seals underneath it, then
// re-fetches and continues — returning every round id the batch landed
// in, in order.
func ingestBatch(ctx context.Context, cli *daemon.Client, ac *atom.Client, info *daemon.Info,
	base int, msgs [][]byte, timeout time.Duration) []uint64 {
	var published []uint64
	remaining := msgs
	user := base
	for len(remaining) > 0 {
		rctx, cancel := context.WithTimeout(ctx, timeout)
		ri, err := cli.ServeInfo(rctx)
		cancel()
		if err != nil {
			log.Fatalf("atomclient: fetching open round: %v", err)
		}
		rctx, cancel = context.WithTimeout(ctx, timeout*time.Duration(len(remaining)))
		n, err := daemon.SubmitBatch(rctx, cli, ac, info, ri, user, remaining)
		cancel()
		if n > 0 {
			fmt.Printf("submitted %d message(s) into round %d\n", n, ri.ID)
			if len(published) == 0 || published[len(published)-1] != ri.ID {
				published = append(published, ri.ID)
			}
		}
		user += n
		remaining = remaining[n:]
		if err != nil && !errors.Is(err, atom.ErrRoundClosed) {
			log.Fatalf("atomclient: submitting (after %d accepted): %v", len(msgs)-len(remaining), err)
		}
	}
	return published
}

// fastIngestBatch drives a batch through the daemon's multiplexed
// binary submit path: every message is encrypted for the open round and
// pipelined over one connection, verdicts arrive as async acks, and
// anything rejected because its round sealed mid-flight is retried
// against the successor. Returns every round id the batch landed in.
func fastIngestBatch(ctx context.Context, info *daemon.Info, ac *atom.Client,
	base int, msgs [][]byte, timeout time.Duration) []uint64 {
	fc, err := daemon.DialFast(info.SubmitAddr)
	if err != nil {
		log.Fatalf("atomclient: dialing fast path %s: %v", info.SubmitAddr, err)
	}
	defer fc.Close()

	type item struct {
		user int
		msg  []byte
	}
	pending := make([]item, len(msgs))
	for i, m := range msgs {
		pending[i] = item{base + i, m}
	}
	var published []uint64
	seen := map[uint64]bool{}
	for len(pending) > 0 {
		rctx, cancel := context.WithTimeout(ctx, timeout)
		ri, err := fc.ServeInfo(rctx)
		cancel()
		if err != nil {
			log.Fatalf("atomclient: fetching open round: %v", err)
		}
		errs := make([]error, len(pending))
		rounds := make([]uint64, len(pending))
		var wg sync.WaitGroup
		for i, it := range pending {
			gid := it.user % info.Groups
			wire, err := ac.EncryptSubmission(it.msg, info.EntryKeys[gid], ri.TrusteeKey, gid)
			if err != nil {
				log.Fatalf("atomclient: encrypting for user %d: %v", it.user, err)
			}
			wg.Add(1)
			i := i
			fc.Submit(ri.ID, it.user, wire, func(round uint64, err error) {
				rounds[i], errs[i] = round, err
				wg.Done()
			})
		}
		if err := fc.Flush(); err != nil {
			log.Fatalf("atomclient: fast path flush: %v", err)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout * time.Duration(len(pending))):
			log.Fatalf("atomclient: fast path acks never arrived for round %d", ri.ID)
		}
		admitted := 0
		var retry []item
		for i, e := range errs {
			switch {
			case e == nil:
				admitted++
				if !seen[rounds[i]] {
					seen[rounds[i]] = true
					published = append(published, rounds[i])
				}
			case errors.Is(e, atom.ErrRoundClosed):
				retry = append(retry, pending[i])
			default:
				log.Fatalf("atomclient: user %d rejected: %v", pending[i].user, e)
			}
		}
		if admitted > 0 {
			fmt.Printf("submitted %d message(s) into round %d over the fast path\n", admitted, ri.ID)
		}
		pending = retry
	}
	return published
}

func printMessages(msgs [][]byte) {
	fmt.Printf("round complete — %d anonymized messages:\n", len(msgs))
	for _, m := range msgs {
		fmt.Printf("  %s\n", m)
	}
}
