package daemon

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"atom"
	"atom/internal/ecc"
	"atom/internal/protocol"
)

// tamperProof decodes a wire submission, perturbs its admission proof,
// and re-encodes — a cryptographically invalid submission that still
// parses.
func tamperProof(t *testing.T, wire []byte) []byte {
	t.Helper()
	sub, err := protocol.DecodeSubmission(wire)
	if err != nil {
		t.Fatal(err)
	}
	sub.Proof.Resp[0] = sub.Proof.Resp[0].Add(ecc.NewScalar(1))
	return sub.Encode()
}

// TestFastPathAttribution drives the pipelined submit path end to end,
// over the extra listener EnableFastPath opens: a batch carrying one
// tampered proof and one duplicate among valid submissions yields
// exactly the right typed rejection for each offender, admits the rest,
// and the admitted messages come out of the mix, awaited over the main
// listener. Runs at 1 and 4 admission workers.
func TestFastPathAttribution(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const valid = 6
			srv, cfg := newServeServer(t, atom.NIZK, atom.ServeOptions{
				RoundInterval: time.Hour, // sealing driven by MaxBatch only
				MaxBatch:      valid,
				MaxInFlight:   2,
			})
			srv.workers = workers
			go srv.Serve()
			addr, err := srv.EnableFastPath("127.0.0.1:0", FastPathOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			info, err := cli.Info(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			ac, err := atom.NewClient(cfg)
			if err != nil {
				t.Fatal(err)
			}

			want := map[string]bool{}
			wires := make([][]byte, 0, valid+2)
			for u := 0; u < valid; u++ {
				gid := u % info.Groups
				msg := fmt.Sprintf("fast path %d", u)
				want[msg] = true
				w, err := ac.EncryptSubmission([]byte(msg), info.EntryKeys[gid], nil, gid)
				if err != nil {
					t.Fatal(err)
				}
				wires = append(wires, w)
			}
			badW, err := ac.EncryptSubmission([]byte("tampered"), info.EntryKeys[0], nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			badIdx := len(wires)
			wires = append(wires, tamperProof(t, badW))
			// Byte-identical replay of the first valid submission. With >1
			// admission worker the two copies may race, so exactly one of
			// the pair is admitted — not necessarily the first.
			dupIdx := len(wires)
			wires = append(wires, append([]byte(nil), wires[0]...))

			fast, err := DialFast(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer fast.Close()

			var wg sync.WaitGroup
			results := make([]error, len(wires))
			rounds := make([]uint64, len(wires))
			for i, w := range wires {
				wg.Add(1)
				i := i
				fast.Submit(0, i, w, func(round uint64, err error) {
					rounds[i], results[i] = round, err
					wg.Done()
				})
			}
			if err := fast.Flush(); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("acks never arrived")
			}

			if !errors.Is(results[badIdx], atom.ErrBadSubmission) || errors.Is(results[badIdx], atom.ErrDuplicateSubmission) {
				t.Errorf("tampered proof: got %v, want ErrBadSubmission (not duplicate)", results[badIdx])
			}
			dupErrs := 0
			for _, i := range []int{0, dupIdx} {
				if errors.Is(results[i], atom.ErrDuplicateSubmission) {
					dupErrs++
				} else if results[i] != nil {
					t.Errorf("replay pair submission %d: unexpected error %v", i, results[i])
				}
			}
			if dupErrs != 1 {
				t.Errorf("replay pair: %d duplicate rejections, want exactly 1", dupErrs)
			}
			var admittedRound uint64
			for i := 1; i < valid; i++ {
				if results[i] != nil {
					t.Errorf("valid submission %d rejected: %v", i, results[i])
					continue
				}
				if admittedRound == 0 {
					admittedRound = rounds[i]
				} else if rounds[i] != admittedRound {
					t.Errorf("submission %d admitted into round %d, others into %d", i, rounds[i], admittedRound)
				}
			}

			// MaxBatch admissions were reached, so the round seals and
			// mixes on its own; the admitted plaintexts must all surface.
			msgs, err := cli.Await(t.Context(), admittedRound)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) != valid {
				t.Fatalf("round %d published %d messages, want %d", admittedRound, len(msgs), valid)
			}
			for _, m := range msgs {
				if !want[string(m)] {
					t.Errorf("unexpected plaintext %q", m)
				}
			}
		})
	}
}

// TestFastPathInfo exercises the info request over EnableFastPath's
// listener: the same deployment and open round as over the main one.
func TestFastPathInfo(t *testing.T) {
	srv, _ := startServeServer(t, atom.NIZK, atom.ServeOptions{
		RoundInterval: time.Hour,
		MaxBatch:      64,
	})
	addr, err := srv.EnableFastPath("127.0.0.1:0", FastPathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	info, err := fast.Info(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if info.Round.ID == 0 || info.Groups != 4 || len(info.EntryKeys) != 4 {
		t.Fatalf("info %+v, want the open round and 4 entry keys", info)
	}
}

// TestFastPathNotServing verifies a submission (and an info or await
// request) into a daemon that never enabled the service fails typed
// instead of hanging.
func TestFastPathNotServing(t *testing.T) {
	srv, cfg := startServer(t, atom.NIZK)
	addr, err := srv.EnableFastPath("127.0.0.1:0", FastPathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := atom.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := srv.Network().EntryKey(0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ac.EncryptSubmission([]byte("early bird"), key, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DialFast(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	errCh := make(chan error, 1)
	fast.Submit(0, 1, wire, func(_ uint64, err error) { errCh <- err })
	if err := fast.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("submission admitted with no service running")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no verdict for a submission without a service")
	}
	if _, err := fast.Info(t.Context()); err == nil {
		t.Fatal("info answered with no service running")
	}
	if _, err := fast.Await(t.Context(), 1); err == nil {
		t.Fatal("await answered with no service running")
	}
}
