package atom

import (
	"time"

	"atom/internal/protocol"
)

// IterationStats reports one mixing iteration of one round: its
// wall-clock latency and the cryptographic work the whole network did
// (all groups run in parallel within an iteration).
type IterationStats struct {
	// Round is the round's sequence number.
	Round uint64
	// Layer is the 0-based mixing iteration (0 ≤ Layer < T).
	Layer int
	// Duration is the iteration's wall-clock latency.
	Duration time.Duration
	// Messages is the number of ciphertext vectors entering the layer.
	Messages int
	// Shuffles and ReEncs count the per-member crypto operations.
	Shuffles int
	ReEncs   int
	// ProofsVerified counts NIZK verifications (0 in the trap variant's
	// mixing iterations).
	ProofsVerified int
	// Workers is the parallel mixing engine's per-group pool size the
	// iteration ran with (Config.MixWorkers, resolved).
	Workers int
	// ActiveGroups counts the groups that held messages this iteration.
	ActiveGroups int
	// WorkerBusy totals the time worker goroutines spent executing
	// crypto tasks across all groups' pools.
	WorkerBusy time.Duration
	// Codec totals the time group members spent encoding and decoding
	// member-to-member chain messages (zero unless the round ran on the
	// distributed engine) — the part of a member's time WorkerBusy
	// cannot see.
	Codec time.Duration
	// Members totals the groups' live memberships for the iteration
	// (Groups × GroupSize when every server is up). A smaller value
	// means the network mixed in degraded mode: some group is running
	// on its h−1 spare budget (§4.5).
	Members int
}

// Utilization reports the fraction of the iteration's worker-pool
// capacity (Workers goroutines in each group that held messages, for
// the iteration's wall-clock span) that was spent executing crypto
// tasks — 1.0 means every worker was busy the whole iteration. It
// returns 0 when the iteration did no work.
func (s IterationStats) Utilization() float64 {
	slots := time.Duration(s.Workers*s.ActiveGroups) * s.Duration
	if slots <= 0 {
		return 0
	}
	return float64(s.WorkerBusy) / float64(slots)
}

// IngestStats reports a round's ingestion-frontend accounting — what
// the admission control and the round scheduler did before mixing
// started.
type IngestStats struct {
	// Admitted is how many submissions the round accepted.
	Admitted int
	// Rejected is how many submissions admission control turned away:
	// failed proofs of plaintext knowledge, duplicate ciphertexts or
	// reused trap commitments, and arrivals after the round sealed.
	Rejected int
	// SealedBatch is the ciphertext-vector count sealed into the
	// layer-0 batches (trap rounds carry two vectors per submission).
	SealedBatch int
	// Queued is the sealed-batch queue depth when this round sealed:
	// rounds sealed but not yet published, this one included. Only the
	// continuous service (Network.Serve) fills it; one-shot rounds
	// report 0.
	Queued int
	// InFlight is how many rounds were actively mixing when this round
	// sealed — the pipeline depth. Only the continuous service fills it.
	InFlight int
}

// AdmitBatchStats reports one batch of the admission plane: how many
// wire submissions were admitted together, how long the combined proof
// verification took, and how the batch split. Surfaced through
// Observer.AdmissionBatch into the daemon's /metrics.
type AdmitBatchStats struct {
	// Size is the number of submissions in the batch; Verified is how
	// many reached the combined proof check (structurally broken
	// submissions never do).
	Size     int
	Verified int
	// VerifyTime is the wall time of the combined verification, including
	// the serial attribution re-scan when the batch check fails.
	VerifyTime time.Duration
	// Admitted and Rejected partition the batch.
	Admitted int
	Rejected int
}

// RoundStats summarizes a completed round.
type RoundStats struct {
	// Round is the round's sequence number.
	Round uint64
	// Submissions is how many submissions the round accepted.
	Submissions int
	// Messages is how many anonymized plaintexts the round produced.
	Messages int
	// Iterations is T, the number of mixing iterations run.
	Iterations int
	// Duration is the wall-clock time of the whole mixing phase
	// (iterations plus the variant finale).
	Duration time.Duration
	// Drain is the seal→publish wall time: how long the sealed batch
	// waited in the queue plus its mixing — the continuous service's
	// end-to-end drain latency. One-shot rounds report 0.
	Drain time.Duration
	// PerIteration holds one entry per mixing iteration, in order.
	PerIteration []IterationStats
	// Shuffles, ReEncs and ProofsVerified total the work across
	// iterations.
	Shuffles       int
	ReEncs         int
	ProofsVerified int
	// Workers is the parallel mixing engine's per-group pool size
	// (constant across a round's iterations); WorkerBusy totals the
	// workers' in-task time across the whole round.
	Workers    int
	WorkerBusy time.Duration
	// Ingest reports the round's admission-control and round-scheduler
	// accounting.
	Ingest IngestStats
}

// Utilization reports the round-wide fraction of worker-pool capacity
// spent executing crypto tasks (see IterationStats.Utilization).
func (s RoundStats) Utilization() float64 {
	var slots, busy time.Duration
	for _, it := range s.PerIteration {
		slots += time.Duration(it.Workers*it.ActiveGroups) * it.Duration
		busy += it.WorkerBusy
	}
	if slots <= 0 {
		return 0
	}
	return float64(busy) / float64(slots)
}

// Observer receives lifecycle callbacks from a Network and its rounds.
// Any field may be nil; nil callbacks are skipped. Callbacks run
// synchronously on the calling goroutine — SubmissionAccepted may fire
// concurrently from many submitting goroutines, so implementations
// must be safe for concurrent use; keep all callbacks cheap.
type Observer struct {
	// RoundOpened fires when a round starts accepting submissions.
	RoundOpened func(round uint64)
	// SubmissionAccepted fires for every accepted submission.
	SubmissionAccepted func(round uint64, user, gid int)
	// AdmissionBatch fires once per batch the admission plane pushes
	// through the combined proof verification (Round.SubmitEncodedBatch).
	// Individual acceptances still fire SubmissionAccepted.
	AdmissionBatch func(round uint64, stats AdmitBatchStats)
	// RoundSealed fires when the continuous service's round scheduler
	// seals a round — at its RoundInterval deadline or its target batch
	// size, whichever came first. The stats carry the ingestion queue
	// depth and the rounds-in-flight count at seal time.
	RoundSealed func(round uint64, ingest IngestStats)
	// IterationDone fires after each mixing iteration. Under a pipelined
	// service, iterations of different rounds interleave; key off the
	// stats' Round field.
	IterationDone func(IterationStats)
	// RoundMixed fires when a round completes successfully.
	RoundMixed func(RoundStats)
	// RoundFailed fires when a round aborts; err is classified by the
	// package's error taxonomy (errors.Is against ErrTrapTripped etc.).
	RoundFailed func(round uint64, err error)
}

// SetObserver installs the network's observer; rounds opened afterwards
// report through it. Passing nil removes it.
func (n *Network) SetObserver(obs *Observer) { n.obs.Store(&observerBox{obs}) }

// observerBox wraps the pointer so atomic.Value accepts a nil observer.
type observerBox struct{ obs *Observer }

func (n *Network) observer() *Observer {
	if v, ok := n.obs.Load().(*observerBox); ok {
		return v.obs
	}
	return nil
}

// statsFromResult converts a protocol round result into public stats.
func statsFromResult(res *protocol.RoundResult, submissions int) RoundStats {
	st := RoundStats{
		Round:       res.Round,
		Submissions: submissions,
		Messages:    len(res.Messages),
		Iterations:  len(res.Iterations),
		Duration:    res.Duration,
		Ingest: IngestStats{
			Admitted:    res.Admitted,
			Rejected:    res.Rejected,
			SealedBatch: res.SealedBatch,
		},
	}
	for _, it := range res.Iterations {
		st.PerIteration = append(st.PerIteration, IterationStats{
			Round:          it.Round,
			Layer:          it.Layer,
			Duration:       it.Duration,
			Messages:       it.Messages,
			Shuffles:       it.Shuffles,
			ReEncs:         it.ReEncs,
			ProofsVerified: it.ProofsChecked,
			Workers:        it.Workers,
			ActiveGroups:   it.ActiveGroups,
			WorkerBusy:     it.WorkerBusy,
			Codec:          it.Codec,
			Members:        it.Members,
		})
		st.Shuffles += it.Shuffles
		st.ReEncs += it.ReEncs
		st.ProofsVerified += it.ProofsChecked
		st.Workers = it.Workers
		st.WorkerBusy += it.WorkerBusy
	}
	return st
}

// hooksFor builds the protocol-layer callbacks that forward to the
// observer's IterationDone.
func (n *Network) hooksFor() *protocol.RoundHooks {
	obs := n.observer()
	if obs == nil || obs.IterationDone == nil {
		return nil
	}
	return &protocol.RoundHooks{
		IterationDone: func(it protocol.IterationStats) {
			obs.IterationDone(IterationStats{
				Round:          it.Round,
				Layer:          it.Layer,
				Duration:       it.Duration,
				Messages:       it.Messages,
				Shuffles:       it.Shuffles,
				ReEncs:         it.ReEncs,
				ProofsVerified: it.ProofsChecked,
				Workers:        it.Workers,
				ActiveGroups:   it.ActiveGroups,
				WorkerBusy:     it.WorkerBusy,
				Codec:          it.Codec,
				Members:        it.Members,
			})
		},
	}
}
