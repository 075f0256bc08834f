package atom

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/protocol"
)

// Mixer executes the mixing iterations of sealed rounds. It is the
// protocol layer's interface re-exported so a Service can run its rounds
// over an alternative engine — in particular internal/distributed's
// Cluster, whose actors pipeline rounds across the wire. A nil Mixer
// selects the in-process engine.
type Mixer = protocol.Mixer

// ServeOptions tunes a continuous Service.
type ServeOptions struct {
	// RoundInterval is the round scheduler's seal deadline: an open
	// round seals this long after it opened, whether or not it is full
	// (default 1s). Shorter intervals trade per-message latency for
	// smaller batches — the paper's §4.7 throughput/latency knob.
	RoundInterval time.Duration
	// MaxBatch seals a round early once this many submissions were
	// admitted (0 = deadline sealing only). Under concurrent submitters
	// a round can exceed the target by the handful of submissions in
	// flight at the trigger.
	MaxBatch int
	// MaxInFlight bounds how many sealed rounds may mix concurrently
	// (default 2) — the one pipeline-depth knob, whichever engine mixes.
	// Over the in-process engine values above 1 only overlap the variant
	// finale, as the groups themselves mix lock-step.
	MaxInFlight int
	// QueueDepth is the sealed-batch queue's capacity (default
	// 2×MaxInFlight). When the queue is full the scheduler stops
	// sealing — the open round keeps ingesting, growing — until a mix
	// slot frees: ingestion backpressure instead of unbounded memory.
	QueueDepth int
	// Mixer runs the rounds' mixing. Nil selects the in-process engine;
	// an internal/distributed.Cluster runs them over its transport.
	Mixer Mixer
	// Journal, when set, makes the pipeline crash-safe: every sealed
	// round is journaled before it is queued for mixing and every
	// published outcome is journaled after. At startup, sealed rounds the
	// journal still holds unpublished are restored and re-dispatched
	// ahead of new work, so a coordinator crash between seal and publish
	// loses no admitted message. internal/store's Store implements this.
	Journal RoundJournal
}

// RoundJournal is the persistence surface a Service writes through when
// ServeOptions.Journal is set. *store.Store satisfies it.
type RoundJournal interface {
	// RecordSealed journals a sealed round's stable encoding
	// (protocol.SealedRound.Marshal) keyed by round id.
	RecordSealed(round uint64, sealed []byte) error
	// RecordOutcome journals a published outcome (failure is the error
	// text, empty on success) and retires the round's sealed record.
	RecordOutcome(round uint64, messages [][]byte, failure string) error
	// PendingSealed returns the sealed records journaled but never
	// published — the rounds a restarted service must re-dispatch.
	PendingSealed() map[uint64][]byte
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.RoundInterval <= 0 {
		o.RoundInterval = time.Second
	}
	if o.MaxInFlight < 1 {
		o.MaxInFlight = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 2 * o.MaxInFlight
	}
	return o
}

// RoundOutcome is one published round of a continuous Service.
type RoundOutcome struct {
	// Round is the round's sequence number.
	Round uint64
	// Messages holds the round's anonymized plaintexts (nil when Err is
	// set).
	Messages [][]byte
	// Stats reports the round's mixing and ingestion statistics.
	Stats RoundStats
	// Err classifies a failed round under the package taxonomy
	// (errors.Is against ErrTrapTripped, ErrMemberLost, …). Failed
	// rounds are published like successful ones so consumers see every
	// sealed round exactly once.
	Err error
}

// sealedJob is one element of the service's append-only sealed-batch
// queue.
type sealedJob struct {
	round  uint64
	sealed *protocol.SealedRound
	ingest IngestStats
}

// Service is the continuous ingestion-and-mixing pipeline over a
// Network: an ingestion frontend admits submissions into whichever
// round is currently open (proof verification and duplicate rejection
// run at admission time, off the mixing path, sharded per entry group);
// a round scheduler seals the open round at its RoundInterval deadline
// or its MaxBatch target, whichever first, appending the sealed batches
// to a bounded queue; and a dispatcher mixes queued rounds with up to
// MaxInFlight in flight — over a distributed cluster, round r+1's
// layer-0 mixing starts while round r is still traversing later layers.
// Results publish per round through Results and WaitRound.
//
// All methods are safe for concurrent use.
type Service struct {
	n    *Network
	opts ServeOptions

	// mu guards the open-round swap; admission counters live on the
	// round itself (RoundState), so a submission racing the swap is
	// counted by whichever round actually admitted it.
	mu      sync.Mutex
	open    *Round
	sealNow chan struct{}

	queue    chan *sealedJob
	queued   atomic.Int32
	inFlight atomic.Int32

	// resMu guards the published-outcome history and its waiters.
	resMu      sync.Mutex
	done       map[uint64]*RoundOutcome
	order      []uint64
	maxEvicted uint64          // highest round id evicted from the history
	sealedSet  map[uint64]bool // sealed rounds not yet published
	waiters    map[uint64][]chan *RoundOutcome
	results    chan RoundOutcome

	// jmu guards the journal: a write failure disables further
	// journaling (the pipeline keeps serving from memory) and the first
	// error surfaces from Close.
	jmu        sync.Mutex
	journal    RoundJournal
	journalErr error

	ctx     context.Context
	cancel  context.CancelFunc
	stop    chan struct{} // closes on graceful Close: sealer seals the remainder and exits
	closing atomic.Bool
	wg      sync.WaitGroup
}

// record applies one journal write, disabling the journal on its first
// failure rather than stalling the mixing pipeline on a sick disk.
func (s *Service) record(write func(RoundJournal) error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return
	}
	if err := write(s.journal); err != nil {
		s.journalErr = fmt.Errorf("atom: journal disabled: %w", err)
		s.journal = nil
	}
}

// resultHistory bounds how many published outcomes WaitRound can still
// fetch after the fact.
const resultHistory = 128

// Serve starts the continuous pipeline. The context is the hard-stop
// switch: when it ends, in-flight mixes abort and the service closes.
// Use Close for a graceful drain (seal the open round, mix the queue,
// publish everything). Rounds the scheduler seals empty are discarded,
// not mixed.
func (n *Network) Serve(ctx context.Context, opts ServeOptions) (*Service, error) {
	opts = opts.withDefaults()
	// Resume journaled sealed-but-unpublished rounds first: restoring
	// them advances the deployment's round sequencer past their ids, so
	// this must happen before the first round opens. Corrupt records
	// fail Serve — a coordinator must not silently drop admitted
	// messages it promised to mix.
	var resumed []*sealedJob
	if opts.Journal != nil {
		pending := opts.Journal.PendingSealed()
		for _, blob := range pending {
			sealed, err := n.d.RestoreSealedRound(blob)
			if err != nil {
				return nil, err
			}
			resumed = append(resumed, &sealedJob{
				round:  sealed.Round(),
				sealed: sealed,
				ingest: IngestStats{
					Admitted:    sealed.Admitted(),
					Rejected:    sealed.Rejected(),
					SealedBatch: sealed.BatchSize(),
				},
			})
		}
		sort.Slice(resumed, func(i, j int) bool { return resumed[i].round < resumed[j].round })
	}
	s := &Service{
		n:       n,
		opts:    opts,
		sealNow: make(chan struct{}, 1),
		// The queue must hold every resumed round beyond its configured
		// depth, or Serve would deadlock before the dispatchers start.
		queue:     make(chan *sealedJob, opts.QueueDepth+len(resumed)),
		done:      make(map[uint64]*RoundOutcome),
		sealedSet: make(map[uint64]bool),
		waiters:   make(map[uint64][]chan *RoundOutcome),
		results:   make(chan RoundOutcome, 4*opts.QueueDepth+64),
		stop:      make(chan struct{}),
		journal:   opts.Journal,
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	first, err := n.OpenRound(s.ctx)
	if err != nil {
		s.cancel()
		return nil, err
	}
	s.open = first
	for _, job := range resumed {
		job.ingest.Queued = int(s.queued.Add(1))
		s.sealedSet[job.round] = true
		if obs := n.observer(); obs != nil && obs.RoundSealed != nil {
			obs.RoundSealed(job.round, job.ingest)
		}
		s.queue <- job // capacity reserved above; never blocks
	}
	s.wg.Add(1 + opts.MaxInFlight)
	go s.schedule()
	for i := 0; i < opts.MaxInFlight; i++ {
		go s.dispatch()
	}
	// A hard stop (the serve context ending) must honor the same
	// contract as Close: Results closes and waiters fail, so consumers
	// ranging the stream never hang. Close is idempotent, so a later
	// explicit Close is a no-op — and Close's own cancel unblocks this
	// watcher.
	go func() {
		<-s.ctx.Done()
		_ = s.Close()
	}()
	return s, nil
}

// Submit pads, encrypts and submits msg for the given user into
// whichever round is currently open, returning that round's id (so the
// caller can WaitRound for the message's batch). A submission racing
// the scheduler's seal lands in the next round.
func (s *Service) Submit(user int, msg []byte) (uint64, error) {
	return s.submit(0, func(r *Round) error { return r.Submit(user, msg) })
}

// SubmitEncoded admits a wire-encoded submission — the path remote
// users take through the daemon's ingestion endpoint. round names the
// round the submission was encrypted for (trap-variant encodings bind
// to a round's trustee key): if that round is no longer open the
// submission fails with ErrRoundClosed and the client re-fetches the
// open round with Current. Pass round 0 to target whichever round is
// open (NIZK encodings are round-independent).
func (s *Service) SubmitEncoded(round uint64, user int, wire []byte) (uint64, error) {
	return s.submit(round, func(r *Round) error { return r.SubmitEncoded(user, wire) })
}

// SubmitEncodedBatch admits many wire-encoded submissions, verifying
// their admission proofs as a single batch — the daemon's multiplexed
// ingestion frontend lands here. round pins the batch exactly as in
// SubmitEncoded; rounds[i] is the round that admitted wires[i] (0 when
// errs[i] is non-nil). With round 0, submissions racing the scheduler's
// seal retry into the successor round, so one batch can straddle a
// rotation; everything else keeps the serial path's typed errors.
func (s *Service) SubmitEncodedBatch(round uint64, users []int, wires [][]byte) (rounds []uint64, errs []error) {
	return s.submitBatch(round, users, wires, 0)
}

// submitBatch is one attempt of SubmitEncodedBatch; the submissions a
// seal raced go through another attempt and their verdicts are scattered
// back (rare, so only that path copies anything).
func (s *Service) submitBatch(round uint64, users []int, wires [][]byte, attempt int) (rounds []uint64, errs []error) {
	rounds = make([]uint64, len(wires))
	errs = make([]error, len(wires))
	r, err := s.resolve(round)
	if err != nil {
		for k := range errs {
			errs[k] = err
		}
		return rounds, errs
	}
	var retry []int
	admitted := false
	for k, err := range r.SubmitEncodedBatch(users, wires) {
		switch {
		case err == nil:
			rounds[k] = r.ID()
			admitted = true
		case sealRaced(round, err, attempt):
			retry = append(retry, k)
		default:
			errs[k] = err
		}
	}
	if admitted {
		s.account(r)
	}
	if len(retry) > 0 {
		retryUsers := make([]int, len(retry))
		retryWires := make([][]byte, len(retry))
		for j, k := range retry {
			retryUsers[j], retryWires[j] = users[k], wires[k]
		}
		retryRounds, retryErrs := s.submitBatch(round, retryUsers, retryWires, attempt+1)
		for j, k := range retry {
			rounds[k], errs[k] = retryRounds[j], retryErrs[j]
		}
	}
	return rounds, errs
}

// resolve returns the round a submission pinned to round goes into: the
// open one, which a nonzero pin must name.
func (s *Service) resolve(round uint64) (*Round, error) {
	s.mu.Lock()
	r := s.open
	s.mu.Unlock()
	if r == nil {
		return nil, ErrServiceClosed
	}
	if round != 0 && r.ID() != round {
		return nil, fmt.Errorf("%w: round %d is not open for submissions (round %d is)", ErrRoundClosed, round, r.ID())
	}
	return r, nil
}

// sealRaced reports whether err means the scheduler sealed the resolved
// round under an unpinned submission, which the successor round then
// takes. A pinned submission never retries (its encoding binds to the
// pinned round), and anything else is a real rejection, counted by the
// round's own RoundState.
func sealRaced(round uint64, err error, attempt int) bool {
	return round == 0 && attempt < 3 && errors.Is(err, ErrRoundClosed)
}

// submit runs fn against the round the pin resolves to and fires the
// size trigger on admission.
func (s *Service) submit(round uint64, fn func(*Round) error) (uint64, error) {
	for attempt := 0; ; attempt++ {
		r, err := s.resolve(round)
		if err != nil {
			return 0, err
		}
		if err = fn(r); err == nil {
			s.account(r)
			return r.ID(), nil
		}
		if !sealRaced(round, err, attempt) {
			return 0, err
		}
	}
}

// account fires the size trigger once the round an admission landed in
// has reached the target batch size.
func (s *Service) account(r *Round) {
	if s.opts.MaxBatch <= 0 || r.Pending() < s.opts.MaxBatch {
		return
	}
	s.mu.Lock()
	isOpen := s.open == r
	s.mu.Unlock()
	if isOpen {
		select {
		case s.sealNow <- struct{}{}:
		default:
		}
	}
}

// Current returns the open round's id and, in the trap variant, its
// trustee public key — what a remote client needs before encrypting a
// submission.
func (s *Service) Current() (round uint64, trusteeKey []byte, err error) {
	s.mu.Lock()
	r := s.open
	s.mu.Unlock()
	if r == nil {
		return 0, nil, ErrServiceClosed
	}
	if s.n.d.Config().Variant == protocol.VariantTrap {
		if trusteeKey, err = r.TrusteeKey(); err != nil {
			return 0, nil, err
		}
	}
	return r.ID(), trusteeKey, nil
}

// Pending returns how many submissions the open round has admitted and
// how many sealed rounds are queued or mixing — the ingestion-side
// health numbers.
func (s *Service) Pending() (open int, queued int) {
	s.mu.Lock()
	if s.open != nil {
		open = s.open.Pending()
	}
	s.mu.Unlock()
	return open, int(s.queued.Load())
}

// schedule is the round scheduler: it seals the open round at every
// RoundInterval deadline or MaxBatch trigger and appends the sealed
// batches to the queue, opening the next round first so ingestion never
// pauses.
func (s *Service) schedule() {
	defer s.wg.Done()
	defer close(s.queue)
	timer := time.NewTimer(s.opts.RoundInterval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-s.sealNow:
			if !timer.Stop() {
				<-timer.C
			}
		case <-s.stop:
			// Graceful close: seal and queue whatever the open round
			// holds, then stop scheduling.
			s.rotate(true)
			return
		case <-s.ctx.Done():
			return
		}
		if !s.rotate(false) {
			return
		}
		timer.Reset(s.opts.RoundInterval)
	}
}

// rotate seals the open round and enqueues it for mixing. A quiet round
// (nothing admitted) is left open instead of sealed, so a submission
// racing the deadline check can never be stranded in an abandoned
// round — it either lands before the next rotation's seal or gets
// ErrRoundClosed and retries into the successor. When a round does
// rotate, the next one opens before the old one seals, so ingestion
// never pauses. It reports whether the service should keep scheduling.
func (s *Service) rotate(final bool) bool {
	s.mu.Lock()
	old := s.open
	s.mu.Unlock()
	if old == nil {
		return false
	}
	if !final && old.Pending() == 0 {
		return true // keep the quiet round open; nothing to seal
	}
	var next *Round
	if !final {
		var err error
		if next, err = s.n.OpenRound(s.ctx); err != nil {
			// Opening can only fail when the context died or key
			// rotation failed — either way the pipeline cannot
			// continue.
			s.cancel()
			return false
		}
	}
	s.mu.Lock()
	s.open = next
	s.mu.Unlock()

	// Seal unconditionally — never re-check Pending after the swap: a
	// submission racing the rotation either made it into the sealed
	// batch (and is counted by the RoundState) or fails typed and
	// retries against the successor. An abandoned-but-open round would
	// silently strand it instead.
	sealed, err := s.n.d.SealRound(old.rs)
	if err != nil {
		// Unreachable in normal operation (the scheduler is the only
		// sealer); treat like a discarded round.
		return true
	}
	if sealed.BatchSize() == 0 {
		return !final // the final rotation's empty seal just closes ingestion
	}
	// Journal before queueing: once the seal record is durable, a crash
	// anywhere downstream re-dispatches the round at the next Serve.
	s.record(func(j RoundJournal) error {
		return j.RecordSealed(old.ID(), sealed.Marshal())
	})
	job := &sealedJob{
		round:  old.ID(),
		sealed: sealed,
		ingest: IngestStats{
			Admitted:    sealed.Admitted(),
			Rejected:    sealed.Rejected(),
			SealedBatch: sealed.BatchSize(),
			InFlight:    int(s.inFlight.Load()),
		},
	}
	job.ingest.Queued = int(s.queued.Add(1))
	s.resMu.Lock()
	s.sealedSet[job.round] = true
	s.resMu.Unlock()
	if obs := s.n.observer(); obs != nil && obs.RoundSealed != nil {
		obs.RoundSealed(job.round, job.ingest)
	}
	select {
	case s.queue <- job:
	case <-s.ctx.Done():
		s.queued.Add(-1)
		return false
	}
	return true
}

// dispatch is one mixing worker: it pulls sealed rounds off the queue
// and mixes them, up to MaxInFlight concurrently.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for job := range s.queue {
		s.inFlight.Add(1)
		res, err := s.n.d.MixSealed(s.ctx, job.sealed, s.n.hooksFor(), s.opts.Mixer)
		s.inFlight.Add(-1)
		s.queued.Add(-1)

		out := RoundOutcome{Round: job.round}
		obs := s.n.observer()
		if err != nil {
			out.Err = err
			if obs != nil && obs.RoundFailed != nil {
				obs.RoundFailed(job.round, out.Err)
			}
		} else {
			stats := statsFromResult(res, job.ingest.Admitted)
			stats.Ingest = job.ingest
			stats.Drain = time.Since(job.sealed.SealedAt)
			out.Messages = res.Messages
			out.Stats = stats
			if obs != nil && obs.RoundMixed != nil {
				obs.RoundMixed(stats)
			}
		}
		s.publish(out)
	}
}

// publish records an outcome, wakes its waiters and streams it to
// Results.
func (s *Service) publish(out RoundOutcome) {
	// The outcome record retires the round's sealed record: after this,
	// a restart no longer re-dispatches it.
	s.record(func(j RoundJournal) error {
		failure := ""
		if out.Err != nil {
			failure = out.Err.Error()
		}
		return j.RecordOutcome(out.Round, out.Messages, failure)
	})
	s.resMu.Lock()
	delete(s.sealedSet, out.Round)
	s.done[out.Round] = &out
	s.order = append(s.order, out.Round)
	if len(s.order) > resultHistory {
		evicted := s.order[0]
		delete(s.done, evicted)
		s.order = s.order[1:]
		if evicted > s.maxEvicted {
			s.maxEvicted = evicted
		}
	}
	for _, ch := range s.waiters[out.Round] {
		ch <- &out // buffered, never blocks
	}
	delete(s.waiters, out.Round)
	s.resMu.Unlock()

	// Results is a lossy live stream: when no one drains it, the oldest
	// outcome yields to the newest instead of stalling the pipeline.
	// WaitRound is the lossless path.
	select {
	case s.results <- out:
	default:
		select {
		case <-s.results:
		default:
		}
		select {
		case s.results <- out:
		default:
		}
	}
}

// Results streams published rounds (successes and failures) in
// publication order. The stream is buffered and lossy under a stalled
// consumer — the oldest unread outcome is dropped for the newest; use
// WaitRound when every round matters. The channel closes when the
// service does.
func (s *Service) Results() <-chan RoundOutcome { return s.results }

// WaitRound blocks until the named round publishes and returns its
// outcome. It returns immediately for recently published rounds (the
// service retains the last 128 outcomes; older ones fail with
// ErrResultExpired rather than waiting forever), and fails when ctx
// ends or the service closes before the round publishes. Round ids are
// issued in order and the service publishes only rounds it sealed, so an
// id above the open round's cannot publish yet and is refused with
// ErrRoundClosed instead of parking a waiter.
func (s *Service) WaitRound(ctx context.Context, round uint64) (*RoundOutcome, error) {
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	s.resMu.Lock()
	if out, ok := s.done[round]; ok {
		s.resMu.Unlock()
		return out, nil
	}
	if round <= s.maxEvicted && !s.sealedSet[round] {
		// Evicted — or a stale/bogus id from before the history window.
		// Every sealed-but-unpublished round is in sealedSet, so even a
		// round stuck for minutes in churn restarts while later rounds
		// publish past it keeps its waiters; an id at or below the
		// eviction mark that is NOT pending can no longer arrive.
		s.resMu.Unlock()
		return nil, fmt.Errorf("%w: round %d", ErrResultExpired, round)
	}
	if open != nil && round > open.ID() {
		s.resMu.Unlock()
		return nil, fmt.Errorf("%w: round %d has not opened (round %d is open for submissions)", ErrRoundClosed, round, open.ID())
	}
	ch := make(chan *RoundOutcome, 1)
	s.waiters[round] = append(s.waiters[round], ch)
	s.resMu.Unlock()
	select {
	case out := <-ch:
		if out == nil { // waiter channel closed by Close
			return nil, fmt.Errorf("%w: round %d never published", ErrServiceClosed, round)
		}
		return out, nil
	case <-ctx.Done():
		s.dropWaiter(round, ch)
		return nil, ctx.Err()
	case <-s.ctx.Done():
		s.dropWaiter(round, ch)
		// The round may have published in the closing race.
		s.resMu.Lock()
		out, ok := s.done[round]
		s.resMu.Unlock()
		if ok {
			return out, nil
		}
		return nil, fmt.Errorf("%w: round %d never published", ErrServiceClosed, round)
	}
}

func (s *Service) dropWaiter(round uint64, ch chan *RoundOutcome) {
	s.resMu.Lock()
	ws := s.waiters[round]
	for i, w := range ws {
		if w == ch {
			s.waiters[round] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(s.waiters[round]) == 0 {
		delete(s.waiters, round)
	}
	s.resMu.Unlock()
}

// Close drains the pipeline gracefully: ingestion stops, the open round
// seals, every queued round mixes and publishes, and Results closes.
// Safe to call more than once.
func (s *Service) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		s.wg.Wait()
		return s.takeJournalErr()
	}
	// The scheduler's final rotation seals the open round (ingestion
	// stops: the rotation installs no successor, so later submissions
	// see ErrServiceClosed) and queues it behind everything already
	// sealed.
	close(s.stop)
	s.wg.Wait()
	s.cancel()
	close(s.results)
	// Fail any waiter for a round that never sealed or published.
	s.resMu.Lock()
	for round, ws := range s.waiters {
		for _, ch := range ws {
			close(ch)
		}
		delete(s.waiters, round)
	}
	s.resMu.Unlock()
	return s.takeJournalErr()
}

// takeJournalErr reports the first journal write failure, if any — the
// one fact a gracefully drained pipeline still owes its operator.
func (s *Service) takeJournalErr() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journalErr
}
