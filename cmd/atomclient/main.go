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
// Every request — info, the pipelined submissions with their coalesced
// acks, and the awaits — travels on the one connection atomclient
// dials, so it works from any machine that can reach the daemon's
// address; a daemon of another protocol version refuses the hello with
// atom.ErrProtocolVersion.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
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
	rctx, cancel := context.WithTimeout(ctx, *timeout)
	cli, err := daemon.DialContext(rctx, *server)
	if err != nil {
		log.Fatalf("atomclient: %v", err)
	}
	defer cli.Close()
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

	// The batch bound scales with its size: the encryption is ours.
	rctx, cancel = context.WithTimeout(ctx, *timeout*time.Duration(len(msgs)))
	admitted, err := daemon.SubmitBatch(rctx, cli, ac, *user, msgs)
	cancel()
	if err != nil {
		log.Fatalf("atomclient: submitting (admitted into rounds %v before): %v", admitted, err)
	}
	fmt.Printf("submitted %d message(s) into round(s) %v\n", len(msgs), admitted)
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

func printMessages(msgs [][]byte) {
	fmt.Printf("round complete — %d anonymized messages:\n", len(msgs))
	for _, m := range msgs {
		fmt.Printf("  %s\n", m)
	}
}
