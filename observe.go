package atom

import (
	"time"

	"atom/internal/protocol"
)

// IterationStats reports one mixing iteration of one round: its
// wall-clock latency and the cryptographic work the whole network did
// (all groups run in parallel within an iteration).
type IterationStats = protocol.IterationStats

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
type AdmitBatchStats = protocol.BatchAdmitStats

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
		Round:        res.Round,
		Submissions:  submissions,
		Messages:     len(res.Messages),
		Iterations:   len(res.Iterations),
		Duration:     res.Duration,
		PerIteration: res.Iterations,
		Ingest: IngestStats{
			Admitted:    res.Admitted,
			Rejected:    res.Rejected,
			SealedBatch: res.SealedBatch,
		},
	}
	for _, it := range res.Iterations {
		st.Shuffles += it.Shuffles
		st.ReEncs += it.ReEncs
		st.ProofsVerified += it.ProofsVerified
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
	return &protocol.RoundHooks{IterationDone: obs.IterationDone}
}
