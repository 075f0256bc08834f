package atom

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"atom/internal/distributed"
	"atom/internal/protocol"
	"atom/internal/transport"
)

// pipelineTrace collects the per-round pipeline timeline through the
// public Observer surface.
type pipelineTrace struct {
	mu       sync.Mutex
	sealed   []uint64 // seal order
	layer0At map[uint64]time.Time
	layer0Ch chan struct{} // closed and replaced at every new layer0At entry
	mixedAt  map[uint64]time.Time
	mixed    map[uint64]RoundStats
	ingest   map[uint64]IngestStats
}

func newPipelineTrace() *pipelineTrace {
	return &pipelineTrace{
		layer0At: make(map[uint64]time.Time),
		layer0Ch: make(chan struct{}),
		mixedAt:  make(map[uint64]time.Time),
		mixed:    make(map[uint64]RoundStats),
		ingest:   make(map[uint64]IngestStats),
	}
}

func (p *pipelineTrace) observer(onIteration func(IterationStats)) *Observer {
	return &Observer{
		RoundSealed: func(round uint64, ing IngestStats) {
			p.mu.Lock()
			p.sealed = append(p.sealed, round)
			p.ingest[round] = ing
			p.mu.Unlock()
		},
		IterationDone: func(it IterationStats) {
			p.mu.Lock()
			if it.Layer == 0 {
				if _, seen := p.layer0At[it.Round]; !seen {
					p.layer0At[it.Round] = time.Now()
					close(p.layer0Ch)
					p.layer0Ch = make(chan struct{})
				}
			}
			p.mu.Unlock()
			if onIteration != nil {
				onIteration(it)
			}
		},
		RoundMixed: func(st RoundStats) {
			p.mu.Lock()
			p.mixedAt[st.Round] = time.Now()
			p.mixed[st.Round] = st
			p.mu.Unlock()
		},
	}
}

// driveServiceRounds submits nRounds batches of perRound tagged
// messages, waiting for the scheduler's rotation between batches, and
// returns the round ids in order plus each round's expected plaintexts.
func driveServiceRounds(t *testing.T, svc *Service, nRounds, perRound int) ([]uint64, map[uint64][]string) {
	t.Helper()
	var ids []uint64
	expected := make(map[uint64][]string)
	user := 0
	for r := 0; r < nRounds; r++ {
		var last uint64
		for m := 0; m < perRound; m++ {
			text := fmt.Sprintf("pipe r%d m%d", r, m)
			id, err := svc.Submit(user, []byte(text))
			if err != nil {
				t.Fatalf("submit round %d msg %d: %v", r, m, err)
			}
			expected[id] = append(expected[id], text)
			last = id
			user++
		}
		ids = append(ids, last)
		// MaxBatch == perRound: the scheduler seals the moment the
		// batch fills; wait for the rotation so the next batch lands in
		// the next round.
		deadline := time.Now().Add(10 * time.Second)
		for {
			cur, _, err := svc.Current()
			if err != nil {
				t.Fatalf("current: %v", err)
			}
			if cur != last {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d never sealed", last)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A batch racing the seal may have spilled a message into the next
	// round; fold such strays into the id list order.
	if len(ids) != nRounds {
		t.Fatalf("drove %d rounds, want %d", len(ids), nRounds)
	}
	return ids, expected
}

// serialParity mixes the same per-round plaintext sets through a fresh
// lock-step deployment and returns each round's sorted output set.
func serialParity(t *testing.T, cfg Config, ids []uint64, expected map[uint64][]string) map[uint64][]string {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]string)
	user := 0
	for _, id := range ids {
		r, err := n.OpenRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range expected[id] {
			if err := r.Submit(user, []byte(text)); err != nil {
				t.Fatal(err)
			}
			user++
		}
		res, err := r.Mix(context.Background())
		if err != nil {
			t.Fatalf("serial mix for round %d: %v", id, err)
		}
		var msgs []string
		for _, m := range res.Messages {
			msgs = append(msgs, string(m))
		}
		sort.Strings(msgs)
		out[id] = msgs
	}
	return out
}

// layer0After reports whether any round later than r has finished its
// layer 0, and otherwise returns a channel closed at the next layer-0
// record.
func (p *pipelineTrace) layer0After(r uint64) (bool, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range p.layer0At {
		if id > r {
			return true, nil
		}
	}
	return false, p.layer0Ch
}

// overlapGate holds each round before the last gated one until a later
// round has finished its layer 0, so that round r cannot publish before
// round r+1 has started mixing. A service that serializes rounds never
// starts that layer, and the gate fails the round after timeout instead
// of hanging.
type overlapGate struct {
	Mixer
	trace   *pipelineTrace
	last    uint64 // rounds before this one wait for a successor
	timeout time.Duration
}

func (g *overlapGate) MixRound(job *protocol.MixJob) (*protocol.MixOutcome, error) {
	out, err := g.Mixer.MixRound(job)
	if err != nil || job.Round >= g.last {
		return out, err
	}
	timeout := time.After(g.timeout)
	for {
		seen, next := g.trace.layer0After(job.Round)
		if seen {
			return out, nil
		}
		select {
		case <-next:
		case <-timeout:
			return nil, fmt.Errorf("round %d mixed, but no later round finished layer 0 within %v: rounds did not overlap", job.Round, g.timeout)
		}
	}
}

func collectOutcomes(t *testing.T, svc *Service, ids []uint64) map[uint64][]string {
	t.Helper()
	got := make(map[uint64][]string)
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		out, err := svc.WaitRound(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("waiting for round %d: %v", id, err)
		}
		if out.Err != nil {
			t.Fatalf("round %d failed: %v", id, out.Err)
		}
		var msgs []string
		for _, m := range out.Messages {
			msgs = append(msgs, string(m))
		}
		sort.Strings(msgs)
		got[id] = msgs
	}
	return got
}

// TestServicePipelineOverlap checks the pipeline over a distributed
// cluster with bounded in-flight rounds: round r+1's layer-0 mixing
// completes before round r publishes (asserted from Observer
// timestamps), while every round's plaintext set matches the serial
// lock-step path exactly. An overlapGate around the cluster holds round
// r's result until round r+1's layer 0 is on the trace, so the overlap
// does not depend on host load; a service that mixed one round at a time
// fails the round at the gate's timeout.
func TestServicePipelineOverlap(t *testing.T) {
	cfg := Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		MessageSize: 32, Variant: Trap, Iterations: 3,
		MixWorkers: 1, Seed: []byte("service-overlap"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := newPipelineTrace()
	n.SetObserver(trace.observer(nil))

	net := transport.NewMemNetwork(transport.UniformLatency(30*time.Millisecond), 256)
	cluster, err := distributed.NewCluster(n.Deployment(), distributed.Options{
		Attach:  distributed.MemAttach(net),
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: 5 * time.Second, // the MaxBatch trigger seals long before the deadline
		MaxBatch:      6,
		MaxInFlight:   2,
		Mixer:         &overlapGate{Mixer: cluster, trace: trace, last: 3, timeout: 10 * time.Second}, // rounds 1 and 2 wait
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ids, expected := driveServiceRounds(t, svc, 3, 6)
	got := collectOutcomes(t, svc, ids)

	// Plaintext-set parity per round against the serial path.
	want := serialParity(t, cfg, ids, expected)
	for _, id := range ids {
		if fmt.Sprint(got[id]) != fmt.Sprint(want[id]) {
			t.Errorf("round %d plaintext set diverges from the serial path:\n  pipelined: %v\n  serial:    %v",
				id, got[id], want[id])
		}
	}

	// Overlap: some round's layer 0 completed before its predecessor
	// published.
	trace.mu.Lock()
	defer trace.mu.Unlock()
	overlapped := false
	for i := 1; i < len(ids); i++ {
		l0, okL := trace.layer0At[ids[i]]
		mixed, okM := trace.mixedAt[ids[i-1]]
		if okL && okM && l0.Before(mixed) {
			overlapped = true
		}
	}
	if !overlapped {
		t.Errorf("no cross-round overlap observed: layer-0 times %v, publish times %v", trace.layer0At, trace.mixedAt)
	}
	// The scheduler must have reported pipeline depth on at least one
	// seal (round r+1 sealing while round r was queued or mixing).
	deep := false
	for _, id := range ids {
		if ing := trace.ingest[id]; ing.Queued > 1 || ing.InFlight > 0 {
			deep = true
		}
		if ing := trace.ingest[id]; ing.Admitted < 6 || ing.SealedBatch < ing.Admitted {
			t.Errorf("round %d ingest stats implausible: %+v", id, ing)
		}
	}
	if !deep {
		t.Error("no seal ever observed a non-empty pipeline")
	}
	// Every scheduled round reports a positive seal→publish drain.
	for _, id := range ids {
		st, ok := trace.mixed[id]
		if !ok {
			t.Errorf("RoundMixed never fired for round %d", id)
			continue
		}
		if st.Drain <= 0 {
			t.Errorf("round %d reports drain %v, want > 0", id, st.Drain)
		}
		if st.Drain > st.Duration+time.Minute {
			t.Errorf("round %d drain %v implausibly exceeds mix duration %v", id, st.Drain, st.Duration)
		}
	}
}

// TestServicePipelineChurn kills a chain member while multiple rounds
// are in flight: every in-flight round must restart from its sealed
// batches on the re-planned chains and still publish its exact
// plaintext set.
func TestServicePipelineChurn(t *testing.T) {
	cfg := Config{
		Servers: 12, Groups: 4, GroupSize: 3,
		HonestServers: 2, Buddies: 1, // one spare per group: chains of 2
		MessageSize: 32, Variant: Trap, Iterations: 3,
		MixWorkers: 1, Seed: []byte("service-churn"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	net := transport.NewMemNetwork(transport.UniformLatency(5*time.Millisecond), 256)
	cluster, err := distributed.NewCluster(n.Deployment(), distributed.Options{
		Attach:          distributed.MemAttach(net),
		Workers:         1,
		Heartbeat:       50 * time.Millisecond,
		LivenessTimeout: time.Second,
		Log:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Kill group 0's second chain member the first time any iteration
	// completes — mid-pipeline, with a second round already sealed or
	// mixing.
	var kill sync.Once
	trace := newPipelineTrace()
	n.SetObserver(trace.observer(func(IterationStats) {
		kill.Do(func() {
			if !cluster.KillMember(distributed.MemberID{GID: 0, Pos: 1}) {
				t.Error("kill target not hosted locally")
			}
		})
	}))

	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: 5 * time.Second,
		MaxBatch:      6,
		MaxInFlight:   2,
		Mixer:         cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ids, expected := driveServiceRounds(t, svc, 3, 6)
	got := collectOutcomes(t, svc, ids)
	want := serialParity(t, cfg, ids, expected)
	for _, id := range ids {
		if fmt.Sprint(got[id]) != fmt.Sprint(want[id]) {
			t.Errorf("round %d plaintext set diverges after churn:\n  pipelined: %v\n  serial:    %v",
				id, got[id], want[id])
		}
	}
}

// TestServiceDeadlineSeal checks the scheduler's other trigger: with no
// MaxBatch, rounds seal at the RoundInterval deadline, and quiet
// intervals produce no empty rounds.
func TestServiceDeadlineSeal(t *testing.T) {
	cfg := Config{
		Servers: 8, Groups: 2, GroupSize: 2,
		MessageSize: 32, Variant: NIZK, Iterations: 2,
		MixWorkers: 1, Seed: []byte("service-deadline"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sealedRounds []uint64
	var mu sync.Mutex
	n.SetObserver(&Observer{
		RoundSealed: func(round uint64, ing IngestStats) {
			mu.Lock()
			sealedRounds = append(sealedRounds, round)
			mu.Unlock()
		},
	})
	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: 150 * time.Millisecond,
		MaxInFlight:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	id, err := svc.Submit(1, []byte("deadline-sealed"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	out, err := svc.WaitRound(ctx, id)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || len(out.Messages) != 1 || string(out.Messages[0]) != "deadline-sealed" {
		t.Fatalf("deadline-sealed round returned %v / %q", out.Err, out.Messages)
	}
	if out.Stats.Ingest.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", out.Stats.Ingest.Admitted)
	}

	// Several quiet deadlines must pass without sealing empty rounds.
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	nSealed := len(sealedRounds)
	mu.Unlock()
	if nSealed != 1 {
		t.Errorf("sealed %d rounds, want exactly 1 (empty deadlines must not seal)", nSealed)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(2, []byte("late")); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("submit after close: %v, want ErrServiceClosed", err)
	}
}

// TestServiceCloseDrains checks the graceful close path: submissions
// admitted before Close publish even though no deadline or size trigger
// ever sealed them.
func TestServiceCloseDrains(t *testing.T) {
	cfg := Config{
		Servers: 8, Groups: 2, GroupSize: 2,
		MessageSize: 32, Variant: Trap, Iterations: 2,
		MixWorkers: 1, Seed: []byte("service-drain"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: time.Hour, // only Close can seal
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(1, []byte("drained on close"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *RoundOutcome, 1)
	go func() {
		out, _ := svc.WaitRound(context.Background(), id)
		done <- out
	}()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out == nil || out.Err != nil || len(out.Messages) != 1 {
		t.Fatalf("close did not drain the open round: %+v", out)
	}
	// The results stream closed after publishing the drained round.
	var streamed []RoundOutcome
	for o := range svc.Results() {
		streamed = append(streamed, o)
	}
	if len(streamed) != 1 || streamed[0].Round != id {
		t.Errorf("results stream = %+v, want the one drained round %d", streamed, id)
	}
}

// TestServiceWaitRoundExpired checks the bounded result history: a
// round evicted from it fails fast with ErrResultExpired instead of
// parking the waiter forever.
func TestServiceWaitRoundExpired(t *testing.T) {
	cfg := Config{
		Servers: 8, Groups: 2, GroupSize: 2,
		MessageSize: 32, Variant: Trap, Iterations: 2,
		MixWorkers: 1, Seed: []byte("service-expired"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := n.Serve(context.Background(), ServeOptions{RoundInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.resMu.Lock()
	svc.maxEvicted = 50 // as if 128 later rounds already published
	svc.resMu.Unlock()
	if _, err := svc.WaitRound(context.Background(), 7); !errors.Is(err, ErrResultExpired) {
		t.Fatalf("WaitRound for an evicted round: %v, want ErrResultExpired", err)
	}
	// An id above the open round's cannot publish yet: refused at once,
	// naming the open round, with no waiter left parked.
	open, _, err := svc.Current()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = svc.WaitRound(ctx, open+60)
	if !errors.Is(err, ErrRoundClosed) || !strings.Contains(err.Error(), fmt.Sprintf("round %d is open", open)) {
		t.Fatalf("WaitRound for a future round: %v, want ErrRoundClosed naming round %d", err, open)
	}
	svc.resMu.Lock()
	parked := len(svc.waiters)
	svc.resMu.Unlock()
	if parked != 0 {
		t.Fatalf("%d waiters parked for a round that cannot publish", parked)
	}
}

// TestServiceDuplicateRejection checks admission control across
// pipelined rounds: a wire submission replayed into the same round is
// rejected with ErrDuplicateSubmission, while the same bytes into the
// next round are accepted (the duplicate filter is per round).
func TestServiceDuplicateRejection(t *testing.T) {
	cfg := Config{
		Servers: 8, Groups: 2, GroupSize: 2,
		MessageSize: 32, Variant: NIZK, Iterations: 2,
		MixWorkers: 1, Seed: []byte("service-dup"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: time.Hour,
		MaxBatch:      3,
		MaxInFlight:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	key, err := n.EntryKey(0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := client.EncryptSubmission([]byte("replay me"), key, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := svc.Current()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitEncoded(r1, 1, wire); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	if _, err := svc.SubmitEncoded(r1, 2, wire); !errors.Is(err, ErrDuplicateSubmission) {
		t.Fatalf("replay into round %d: %v, want ErrDuplicateSubmission", r1, err)
	}
	// Fill the round so it seals, then replay into the successor.
	for u := 3; ; u++ {
		id, err := svc.Submit(u, fmt.Appendf(nil, "filler %d", u))
		if err != nil {
			t.Fatal(err)
		}
		if id != r1 {
			break
		}
	}
	r2, _, err := svc.Current()
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 {
		t.Fatal("round never rotated")
	}
	if _, err := svc.SubmitEncoded(0, 9, wire); err != nil {
		t.Fatalf("replay into round %d: %v, want acceptance (per-round dedup)", r2, err)
	}
	// Targeting the sealed round must fail typed.
	if _, err := svc.SubmitEncoded(r1, 10, wire); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("submission into sealed round %d: %v, want ErrRoundClosed", r1, err)
	}
}

// TestServiceBatchSubmit drives the batched admission plane end to end:
// one SubmitEncodedBatch call admits a mixed batch into the open round,
// rejections keep their typed attribution, the AdmissionBatch observer
// fires, and the admitted plaintexts come out of the mix.
func TestServiceBatchSubmit(t *testing.T) {
	cfg := Config{
		Servers: 8, Groups: 2, GroupSize: 2,
		MessageSize: 32, Variant: NIZK, Iterations: 2,
		MixWorkers: 1, Seed: []byte("service-batch"),
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batchMu sync.Mutex
	var batches []AdmitBatchStats
	n.SetObserver(&Observer{
		AdmissionBatch: func(round uint64, st AdmitBatchStats) {
			batchMu.Lock()
			batches = append(batches, st)
			batchMu.Unlock()
		},
	})
	svc, err := n.Serve(context.Background(), ServeOptions{
		RoundInterval: time.Hour,
		MaxBatch:      5,
		MaxInFlight:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	users := make([]int, 6)
	wires := make([][]byte, 6)
	want := make(map[string]bool, 5)
	for u := 0; u < 5; u++ {
		gid := u % 2
		key, err := n.EntryKey(gid)
		if err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("batched message %d", u)
		want[msg] = true
		wire, err := client.EncryptSubmission([]byte(msg), key, nil, gid)
		if err != nil {
			t.Fatal(err)
		}
		users[u], wires[u] = u, wire
	}
	// A byte-identical replay of the first submission rides along.
	users[5], wires[5] = 5, append([]byte(nil), wires[0]...)

	rounds, errs := svc.SubmitEncodedBatch(0, users, wires)
	for i := 0; i < 5; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d rejected: %v", i, errs[i])
		}
		if rounds[i] != rounds[0] {
			t.Fatalf("submission %d landed in round %d, want %d", i, rounds[i], rounds[0])
		}
	}
	if !errors.Is(errs[5], ErrDuplicateSubmission) {
		t.Fatalf("replay: got %v, want ErrDuplicateSubmission", errs[5])
	}

	batchMu.Lock()
	nb := len(batches)
	var st AdmitBatchStats
	if nb > 0 {
		st = batches[0]
	}
	batchMu.Unlock()
	if nb != 1 {
		t.Fatalf("AdmissionBatch fired %d times, want 1", nb)
	}
	if st.Size != 6 || st.Admitted != 5 || st.Rejected != 1 {
		t.Fatalf("AdmissionBatch stats: %+v", st)
	}

	// MaxBatch=5 was reached, so the round seals and mixes on its own.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := svc.WaitRound(ctx, rounds[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Messages) != len(want) {
		t.Fatalf("round published %d messages, want %d", len(out.Messages), len(want))
	}
	for _, m := range out.Messages {
		if !want[string(m)] {
			t.Errorf("unexpected plaintext %q", m)
		}
	}
}
