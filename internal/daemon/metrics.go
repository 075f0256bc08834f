package daemon

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"atom"
	"atom/internal/store"
)

// Metrics is the daemon's Prometheus-style counter set: an Observer
// shim tallies the pipeline's lifecycle events, and ServeHTTP exposes
// them (plus the state store's own counters) in the text exposition
// format — stdlib only, scrapeable by any Prometheus-compatible
// collector from atomd's -metrics listener.
type Metrics struct {
	roundsOpened  atomic.Uint64
	roundsSealed  atomic.Uint64
	roundsMixed   atomic.Uint64
	roundsFailed  atomic.Uint64
	subsAccepted  atomic.Uint64
	subsAdmitted  atomic.Uint64
	subsRejected  atomic.Uint64
	msgsDelivered atomic.Uint64
	iterations    atomic.Uint64
	iterNanos     atomic.Uint64
	workerBusyNs  atomic.Uint64
	hopCodecNs    atomic.Uint64
	shuffles      atomic.Uint64
	reencs        atomic.Uint64
	proofsChecked atomic.Uint64
	queueDepth    atomic.Int64
	inFlight      atomic.Int64

	// Admission-plane series (the batched ingestion frontend).
	admitBatches   atomic.Uint64
	admitBatchSubs atomic.Uint64
	admitBatchSize atomic.Int64
	admitVerifyNs  atomic.Uint64
	submitConns    atomic.Int64
	submitQueueHWM atomic.Int64

	// Seal→publish time summed over pipelined rounds.
	drainNs atomic.Uint64

	st atomic.Pointer[store.Store]
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{} }

// SetStore attaches a state store whose journal counters the exposition
// reports as store_* series.
func (m *Metrics) SetStore(st *store.Store) { m.st.Store(st) }

// Instrument returns an Observer that updates the counters and then
// forwards every callback to next (which may be nil). Install the
// result with Network.SetObserver.
func (m *Metrics) Instrument(next *atom.Observer) *atom.Observer {
	return &atom.Observer{
		RoundOpened: func(round uint64) {
			m.roundsOpened.Add(1)
			if next != nil && next.RoundOpened != nil {
				next.RoundOpened(round)
			}
		},
		SubmissionAccepted: func(round uint64, user, gid int) {
			m.subsAccepted.Add(1)
			if next != nil && next.SubmissionAccepted != nil {
				next.SubmissionAccepted(round, user, gid)
			}
		},
		AdmissionBatch: func(round uint64, st atom.AdmitBatchStats) {
			m.admitBatches.Add(1)
			m.admitBatchSubs.Add(uint64(st.Size))
			m.admitBatchSize.Store(int64(st.Size))
			m.admitVerifyNs.Add(uint64(st.VerifyTime))
			if next != nil && next.AdmissionBatch != nil {
				next.AdmissionBatch(round, st)
			}
		},
		RoundSealed: func(round uint64, ingest atom.IngestStats) {
			m.roundsSealed.Add(1)
			m.subsAdmitted.Add(uint64(ingest.Admitted))
			m.subsRejected.Add(uint64(ingest.Rejected))
			m.queueDepth.Store(int64(ingest.Queued))
			m.inFlight.Store(int64(ingest.InFlight))
			if next != nil && next.RoundSealed != nil {
				next.RoundSealed(round, ingest)
			}
		},
		IterationDone: func(it atom.IterationStats) {
			m.iterations.Add(1)
			m.iterNanos.Add(uint64(it.Duration))
			m.workerBusyNs.Add(uint64(it.WorkerBusy))
			m.hopCodecNs.Add(uint64(it.Codec))
			m.shuffles.Add(uint64(it.Shuffles))
			m.reencs.Add(uint64(it.ReEncs))
			m.proofsChecked.Add(uint64(it.ProofsVerified))
			if next != nil && next.IterationDone != nil {
				next.IterationDone(it)
			}
		},
		RoundMixed: func(stats atom.RoundStats) {
			m.roundsMixed.Add(1)
			m.msgsDelivered.Add(uint64(stats.Messages))
			if stats.Drain > 0 {
				m.drainNs.Add(uint64(stats.Drain))
			}
			if next != nil && next.RoundMixed != nil {
				next.RoundMixed(stats)
			}
		},
		RoundFailed: func(round uint64, err error) {
			m.roundsFailed.Add(1)
			if next != nil && next.RoundFailed != nil {
				next.RoundFailed(round, err)
			}
		},
	}
}

// ServeHTTP writes the text exposition (version 0.0.4 — the format
// every Prometheus-compatible scraper accepts).
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	seconds := func(name, help string, d time.Duration, kind string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, kind, name, d.Seconds())
	}
	counter("atom_rounds_opened_total", "Rounds opened for submissions.", m.roundsOpened.Load())
	counter("atom_rounds_sealed_total", "Rounds sealed by the scheduler.", m.roundsSealed.Load())
	counter("atom_rounds_mixed_total", "Rounds mixed and published successfully.", m.roundsMixed.Load())
	counter("atom_rounds_failed_total", "Rounds published as failed (aborts, losses, trap trips).", m.roundsFailed.Load())
	counter("atom_submissions_accepted_total", "Submissions accepted at the ingestion frontend.", m.subsAccepted.Load())
	counter("atom_submissions_admitted_total", "Submissions admitted into sealed rounds.", m.subsAdmitted.Load())
	counter("atom_submissions_rejected_total", "Submissions turned away by admission control.", m.subsRejected.Load())
	counter("atom_messages_delivered_total", "Anonymized plaintexts delivered by mixed rounds.", m.msgsDelivered.Load())
	counter("atom_iterations_total", "Mixing iterations completed.", m.iterations.Load())
	seconds("atom_iteration_seconds_total", "Wall-clock time summed over mixing iterations.", time.Duration(m.iterNanos.Load()), "counter")
	seconds("atom_worker_busy_seconds_total", "Crypto-worker in-task time summed over iterations.", time.Duration(m.workerBusyNs.Load()), "counter")
	seconds("atom_hop_codec_seconds_total", "Member time encoding and decoding chain messages (distributed engine).", time.Duration(m.hopCodecNs.Load()), "counter")
	counter("atom_shuffles_total", "Verifiable shuffles performed.", m.shuffles.Load())
	counter("atom_reencs_total", "Re-encryptions performed.", m.reencs.Load())
	counter("atom_proofs_verified_total", "NIZK proofs verified.", m.proofsChecked.Load())
	gauge("atom_queue_depth", "Sealed rounds awaiting mixing at the last seal.", m.queueDepth.Load())
	gauge("atom_rounds_in_flight", "Rounds actively mixing at the last seal.", m.inFlight.Load())
	counter("atom_admit_batches_total", "Batches pushed through the combined admission-proof verification.", m.admitBatches.Load())
	counter("atom_admit_batch_subs_total", "Submissions admitted or rejected through batched admission.", m.admitBatchSubs.Load())
	gauge("atom_admit_batch_size", "Size of the most recent admission batch.", m.admitBatchSize.Load())
	counter("atom_admit_verify_ns", "Nanoseconds spent in combined admission-proof verification.", m.admitVerifyNs.Load())
	gauge("atom_submit_conns", "Open fast-path submit connections.", m.submitConns.Load())
	gauge("atom_submit_queue_hwm", "High-water mark of the fast-path admission queue depth.", m.submitQueueHWM.Load())
	counter("atom_drain_ns", "Nanoseconds from seal to publish summed over pipelined rounds.", m.drainNs.Load())
	if st := m.st.Load(); st != nil {
		sm := st.Metrics()
		counter("store_journal_bytes_total", "Bytes appended to the state journal.", sm.JournalBytes)
		counter("store_fsyncs_total", "Fsync calls issued by the state store.", sm.Fsyncs)
		counter("store_records_total", "Records appended to the state journal.", sm.Records)
		counter("store_snapshots_total", "Snapshot compactions taken.", sm.Snapshots)
		counter("store_replay_records", "Records replayed by the last open.", sm.ReplayRecords)
		seconds("store_replay_seconds", "Time the last open spent replaying.", sm.ReplayDuration, "gauge")
	}
}

// debugMux builds the daemon's debug handler: /metrics when m is
// non-nil, net/http/pprof under /debug/pprof/ when withPprof is set.
// Both endpoints share one mux so a single listener can expose both.
func debugMux(m *Metrics, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	index := "atomd debug:"
	if m != nil {
		mux.Handle("/metrics", m)
		index += " /metrics"
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		index += " /debug/pprof/"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, index+"\n")
	})
	return mux
}

// ServeMetrics serves m (at /metrics, plus a bare / index) on addr
// until the listener fails — intended for `go ServeMetrics(...)` from
// a daemon main. It returns http.ListenAndServe's error.
func ServeMetrics(addr string, m *Metrics) error {
	return http.ListenAndServe(addr, debugMux(m, false))
}

// ServeDebug is ServeMetrics plus optional net/http/pprof on the same
// mux. m may be nil to serve pprof alone (the atomsim -pprof case).
func ServeDebug(addr string, m *Metrics, withPprof bool) error {
	return http.ListenAndServe(addr, debugMux(m, withPprof))
}
