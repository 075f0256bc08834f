package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"atom"
	"atom/internal/protocol"
)

// workload is one traffic mix against the reference deployment.
type workload struct {
	name        string
	variant     atom.Variant
	messageSize int
	cluster     bool // mix over distributed.Cluster on a latency memnet, journal to a real store
	run         func(*run) error
}

var workloads = []workload{
	{name: "round_trap", variant: atom.Trap, messageSize: 160, run: (*run).batchRounds},
	{name: "cluster_trap", variant: atom.Trap, messageSize: 160, cluster: true, run: (*run).batchRounds},
	{name: "serve_nizk", variant: atom.NIZK, messageSize: 32, run: (*run).serve},
	{name: "ingest_storm", variant: atom.NIZK, messageSize: 32, run: (*run).storm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes how much each workload sends. The counts are constants,
// never calibrated against the host, so a parent commit and a change
// see identical input; only the number of back-to-back rounds that fit
// into the measuring time differs.
type sizes struct {
	setups    int           // deployments set up per run; setup_s is their median
	warmup    int           // messages in the off-clock warm-up round
	round     int           // messages per closed-loop round (batch cap)
	interval  time.Duration // serve_nizk round interval
	serveRate float64       // serve_nizk offered rate, msgs/s (≈0.45 of measured capacity)
	pacedRate float64       // ingest_storm paced segment, msgs/s
	paced     time.Duration // length of the paced segment
	window    time.Duration // length of the windows the paced segment's acks are reduced in
	flood     int           // ingest_storm flood segment, submissions
	offenders int           // per class, seeded into the flood
}

// referenceSizes are the benchmark's sizes for a run that measures for
// the given time.
func referenceSizes(seconds float64) sizes {
	return sizes{
		setups: 3, warmup: 64, round: 256,
		interval: 2 * time.Second, serveRate: 30,
		pacedRate: 2000, paced: time.Duration(seconds * 3 / 4 * float64(time.Second)), window: 250 * time.Millisecond,
		flood: int(4000 * seconds), offenders: 16,
	}
}

// run is one workload run and everything it measured.
type run struct {
	w       workload
	g       *gen
	sz      sizes
	seconds float64
	tmp     string
	log     *obsLog // non-nil on a traced run
	d       *deployment

	setups   []float64 // s
	e2e      []float64 // ms, due → publish, one per published message
	admit    []latency // due → ack, one per closed-loop round, per window of the storm's paced segment, or for all of serve_nizk
	late     []float64 // ms, due → actually sent (open-loop segments)
	clock    time.Duration
	alloc    uint64
	attempt  int
	failed   int
	failures []string

	publishedMsgs int
	publishClock  time.Duration
	admitRate     float64     // msgs/s acknowledged in the open-loop or flood segment
	floods        []roundStat // closed loop: one per round
	rounds        []roundRec
	segments      []segment
	base, final   counters  // before and after the workload proper
	rss           []float64 // MB resident, sampled every 20 ms on the clock
}

// roundRec is one published round as the generator saw it.
type roundRec struct {
	id        uint64
	openLoop  bool        // sealed by the scheduler's deadline, not by the generator filling the batch cap
	due       []time.Time // when each of its messages was due
	first     time.Time
	lastAck   time.Time // closed loop: when the flood was fully acknowledged
	published time.Time
	messages  int
	stats     atom.RoundStats
}

// roundStat is how one closed-loop round's flood was acknowledged and
// what the round allocated. Which admission worker picks up how much
// of a flood is decided anew every round (one worker verifying all 256,
// or two verifying halves in parallel, a third faster), and one round
// in three allocates a tenth to two thirds more than the others, so
// these are reduced per round and the run reports its undisturbed round.
type roundStat struct {
	admit        latency
	admitRate    float64 // msgs/s, first submission → last ack
	allocPerKmsg float64 // MB
}

// latency is the median and 95th percentile of a sample of ack
// latencies, in ms.
type latency struct{ p50, p95 float64 }

func latencyOf(ms []float64) latency { return latency{median(ms), percentile(ms, 95)} }

// counters are the cumulative byte and fsync counts of the layers that
// only cluster_trap has.
type counters struct {
	journalBytes, fsyncs uint64
	transportBytes       int64
}

func (d *deployment) counters() (c counters) {
	if d.journal != nil {
		m := d.journal.Metrics()
		c.journalBytes, c.fsyncs = m.JournalBytes, m.Fsyncs
	}
	if d.memnet != nil {
		c.transportBytes = d.memnet.TotalBytes()
	}
	return c
}

// segment is one stretch of on-clock submission outside a round's
// life: the storm's paced and flood segments.
type segment struct {
	name       string
	start, end time.Time
}

func (r *run) failf(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// onClock runs fn inside the measured window, charging its wall time
// and allocation to the run and sampling the resident set meanwhile. The
// window starts from a collected heap: what the generator left behind
// while encrypting is not the window's.
func (r *run) onClock(fn func() error) (allocated uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stop, sampled := make(chan struct{}), make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rss = append(rss, residentMB())
			case <-stop:
				sampled <- rss
				return
			}
		}
	}()
	start := time.Now()
	err = fn()
	r.clock += time.Since(start)
	close(stop)
	r.rss = append(r.rss, <-sampled...)
	runtime.ReadMemStats(&after)
	allocated = after.TotalAlloc - before.TotalAlloc
	r.alloc += allocated
	return allocated, err
}

// execute sets the deployment up, runs the workload on it, and then
// sets it up again until sz.setups set-ups are timed. The workload runs
// on the first, as a real deployment would: internal/ecc keeps at most
// eight comb tables per process and evicts at random, so a deployment
// that follows others in its process can lose a live group key's table
// to their dead ones, which slows every round of a small-batch workload
// by a fifth for as long as the deployment lives.
func (r *run) execute() error {
	var obs *atom.Observer
	if r.log != nil {
		obs = r.log.observer()
	}
	for i := 0; i < r.sz.setups; i++ {
		d, took, err := setup(r.w, r.g, r.sz, r.tmp, obs)
		obs = nil // only the measured deployment is traced
		if err != nil {
			return err
		}
		r.setups = append(r.setups, took.Seconds())
		if i == 0 {
			r.d = d
			err = r.measure()
		}
		d.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs the workload proper on the deployment just set up.
func (r *run) measure() error {
	if r.log != nil {
		r.log.reset() // set-up and warm-up are not part of the trace
	}
	r.base = r.d.counters()
	err := r.w.run(r)
	r.final = r.d.counters()
	return err
}

// closedRound runs one batch round, encryption off the clock and the
// rest on it, and checks it.
func (r *run) closedRound(label string, userBase int) (roundStat, error) {
	msgs := r.g.messages(label, r.sz.round, r.w.messageSize-2)
	rep, err := r.d.prepare(msgs)
	if err != nil {
		return roundStat{}, err
	}
	allocated, err := r.onClock(func() error { return r.d.flood(rep, userBase) })
	if err != nil {
		return roundStat{}, err
	}
	r.attempt += len(msgs)
	r.checkRound(rep.id, rep.out, msgs, rep.errs)

	rec := roundRec{id: rep.id, due: rep.sent, first: rep.sent[0], lastAck: rep.sent[0],
		published: rep.at, messages: len(rep.out.Messages), stats: rep.out.Stats}
	var admit []float64
	for i := range msgs {
		if rep.errs[i] != nil {
			continue
		}
		r.e2e = append(r.e2e, millis(rep.at.Sub(rep.sent[i])))
		admit = append(admit, millis(rep.acked[i].Sub(rep.sent[i])))
		if rep.acked[i].After(rec.lastAck) {
			rec.lastAck = rep.acked[i]
		}
	}
	r.publishedMsgs += rec.messages
	r.publishClock += rep.at.Sub(rec.first)
	r.rounds = append(r.rounds, rec)
	return roundStat{
		admit:        latencyOf(admit),
		admitRate:    ratio(float64(len(admit)), rec.lastAck.Sub(rec.first).Seconds()),
		allocPerKmsg: float64(allocated) / (1 << 20) / float64(len(msgs)) * 1000,
	}, nil
}

// batchRounds is round_trap and cluster_trap: closed loop, one round in
// flight, rounds back to back until the measuring time is used up.
func (r *run) batchRounds() error {
	if err := r.d.serve(atom.ServeOptions{RoundInterval: time.Hour, MaxBatch: r.sz.round, MaxInFlight: 1}); err != nil {
		return err
	}
	for k := 0; k == 0 || r.clock.Seconds() < r.seconds; k++ {
		st, err := r.closedRound(fmt.Sprintf("%s/round%d", r.w.name, k), k*r.sz.round)
		if err != nil {
			return err
		}
		r.floods = append(r.floods, st)
		r.admit = append(r.admit, st.admit)
	}
	return nil
}

// serve is serve_nizk: the continuous pipelined service under an open
// loop. Submissions arrive on a seeded Poisson schedule for the
// measuring time and are timed from when they were due; the run ends
// with the last publish.
func (r *run) serve() error {
	const maxInFlight = 2
	offsets := r.g.poisson(r.w.name+"/arrivals", r.sz.serveRate, time.Duration(r.seconds*float64(time.Second)))
	msgs := r.g.messages(r.w.name+"/messages", len(offsets), r.w.messageSize-2)
	wires, err := r.d.encrypt(msgs, nil)
	if err != nil {
		return err
	}
	if err := r.d.serve(atom.ServeOptions{RoundInterval: r.sz.interval, MaxInFlight: maxInFlight}); err != nil {
		return err
	}
	r.attempt += len(msgs)
	_, err = r.onClock(func() error {
		start := time.Now()
		dl, err := r.d.send(wires, 0, 0, start, offsets)
		if err != nil {
			return err
		}
		r.segments = append(r.segments, segment{"paced", start, time.Now()})
		if _, queued := r.d.srv.Service().Pending(); queued > maxInFlight {
			r.failf(len(msgs), "backlog: %d rounds sealed and unpublished after the last ack (MaxInFlight %d)", queued, maxInFlight)
		}
		var acks [][]float64
		acks, r.admitRate = r.openLoop(dl, start, offsets, 0)
		r.admit = append(r.admit, latencyOf(acks[0]))

		// Every message rides the round that acknowledged it.
		byRound := map[uint64][]int{}
		var order []uint64
		for i, id := range dl.rounds {
			if dl.errs[i] != nil {
				continue // counted by openLoop
			}
			if byRound[id] == nil {
				order = append(order, id)
			}
			byRound[id] = append(byRound[id], i)
		}
		for _, id := range order {
			p, err := r.d.await(id)
			if err != nil {
				return err
			}
			rec := roundRec{id: id, openLoop: true, published: p.at, messages: len(p.out.Messages), stats: p.out.Stats}
			var sub [][]byte
			for _, i := range byRound[id] {
				due := start.Add(offsets[i])
				sub = append(sub, msgs[i])
				rec.due = append(rec.due, due)
				r.e2e = append(r.e2e, millis(p.at.Sub(due)))
			}
			rec.first = rec.due[0]
			r.checkRound(id, p.out, sub, nil)
			r.publishedMsgs += rec.messages
			r.publishClock = max(r.publishClock, p.at.Sub(start))
			r.rounds = append(r.rounds, rec)
		}
		return nil
	})
	return err
}

// openLoop charges an open-loop segment: generator lateness and every
// refusal as a failure. It returns the ack latencies, timed from each
// submission's due time, in one sample per window of due time (a single
// one when window is 0), and the acknowledged rate.
func (r *run) openLoop(dl *delivery, start time.Time, offsets []time.Duration, window time.Duration) ([][]float64, float64) {
	if len(offsets) == 0 { // a run too short for a single arrival
		return make([][]float64, 1), 0
	}
	end := offsets[len(offsets)-1]
	if window <= 0 {
		window = end + 1
	}
	windows := make([][]float64, end/window+1)
	last, acked := start, 0
	for i, off := range offsets {
		due := start.Add(off)
		r.late = append(r.late, millis(dl.sent[i].Sub(due)))
		if dl.errs[i] != nil {
			r.failf(1, "paced submission %d refused: %v", i, dl.errs[i])
			continue
		}
		acked++
		windows[off/window] = append(windows[off/window], millis(dl.acked[i].Sub(due)))
		if dl.acked[i].After(last) {
			last = dl.acked[i]
		}
	}
	return windows, ratio(float64(acked), last.Sub(start).Seconds())
}

// Offender classes seeded into the storm's flood.
const (
	valid = iota
	badProof
	duplicate
	undecodable
)

// storm is ingest_storm: NIZK submissions into a round that never
// seals — a paced open-loop segment, then a flood carrying seeded
// offenders that must each be refused with the right typed error.
// Mixing does nothing during either. Then, on a fresh service over the
// same deployment, one batch round goes through seal, mix and publish,
// so that this workload too reports what a user waits for a
// publication (the NIZK counterpart of round_trap's batch shape).
func (r *run) storm() error {
	offsets := r.g.poisson(r.w.name+"/arrivals", r.sz.pacedRate, r.sz.paced)
	msgs := r.g.messages(r.w.name+"/messages", len(offsets)+r.sz.flood, r.w.messageSize-2)
	wires, err := r.d.encrypt(msgs, nil)
	if err != nil {
		return err
	}
	paced, flood := wires[:len(offsets)], wires[len(offsets):]

	// Offenders sit at flood positions ≡ 2 (mod 4). A bad proof is the
	// proof of the submission before it; a duplicate replays the
	// submission two places earlier, on the same connection. Neither
	// neighbour is ever an offender itself.
	class := make([]int, len(flood))
	slots := r.g.positions(r.w.name+"/offenders", 0, len(flood)/4, 3*r.sz.offenders)
	junk := r.g.messages(r.w.name+"/junk", r.sz.offenders, len(flood[0]))
	for k, s := range slots {
		p := 4*s + 2
		switch class[p] = badProof + k%3; class[p] {
		case badProof:
			if flood[p], err = transplantProof(flood[p], flood[p-1]); err != nil {
				return err
			}
		case duplicate:
			flood[p] = flood[p-2]
		case undecodable:
			flood[p] = junk[k/3]
			flood[p][0] = 0xff // no submission kind: decoding fails inside a well-formed frame
		}
	}

	if err := r.d.serve(atom.ServeOptions{RoundInterval: time.Hour, MaxInFlight: 1}); err != nil {
		return err
	}
	r.attempt += len(wires)
	_, err = r.onClock(func() error {
		start := time.Now()
		dl, err := r.d.send(paced, 0, 0, start, offsets)
		if err != nil {
			return err
		}
		r.segments = append(r.segments, segment{"paced", start, time.Now()})
		acks, _ := r.openLoop(dl, start, offsets, r.sz.window) // its rate is the offered rate; the flood's is the metric
		for _, w := range acks {
			if len(w) > 0 {
				r.admit = append(r.admit, latencyOf(w))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = r.onClock(func() error {
		start := time.Now()
		dl, err := r.d.send(flood, len(paced), 0, time.Time{}, nil)
		if err != nil {
			return err
		}
		r.segments = append(r.segments, segment{"flood", start, time.Now()})
		r.checkFlood(dl, class)
		r.admitRate = floodRate(dl)
		return nil
	})
	if err != nil {
		return err
	}

	if err := r.d.serve(atom.ServeOptions{RoundInterval: time.Hour, MaxBatch: r.sz.round, MaxInFlight: 1}); err != nil {
		return err
	}
	_, err = r.closedRound(r.w.name+"/publish", len(wires))
	return err
}

// transplantProof returns wire with the proof of donor: well-formed,
// decodable, and failing verification.
func transplantProof(wire, donor []byte) ([]byte, error) {
	sub, err := protocol.DecodeSubmission(wire)
	if err != nil {
		return nil, err
	}
	from, err := protocol.DecodeSubmission(donor)
	if err != nil {
		return nil, err
	}
	sub.Proof = from.Proof
	return sub.Encode(), nil
}

// checkFlood holds every flood submission to its expected verdict:
// offenders refused with their exact class, every valid neighbour
// admitted.
func (r *run) checkFlood(dl *delivery, class []int) {
	for p, err := range dl.errs {
		switch class[p] {
		case valid:
			// The original of a duplicate pair may lose the race to its
			// replay (two admission workers); the pair is judged below.
			if err != nil && !(p+2 < len(class) && class[p+2] == duplicate) {
				r.failf(1, "valid flood submission %d refused: %v", p, err)
			}
		case duplicate:
			first, second := dl.errs[p-2], err
			if first != nil {
				first, second = second, first
			}
			if first != nil || !errors.Is(second, atom.ErrDuplicateSubmission) {
				r.failf(1, "duplicate pair at %d: verdicts %v / %v, want one admitted and one ErrDuplicateSubmission", p, dl.errs[p-2], err)
			}
		default:
			if !errors.Is(err, atom.ErrBadSubmission) || errors.Is(err, atom.ErrDuplicateSubmission) {
				r.failf(1, "offender %d (class %d): verdict %v, want plain ErrBadSubmission", p, class[p], err)
			}
		}
	}
}

// floodRate is the median acknowledged rate over quarter-second
// buckets, the first and last partial buckets dropped: a stalled
// neighbour on the host moves a whole-window mean, not this.
func floodRate(dl *delivery) float64 {
	const bucket = 250 * time.Millisecond
	first, last := dl.sent[0], dl.sent[0]
	for _, at := range dl.acked {
		if at.After(last) {
			last = at
		}
	}
	counts := make([]float64, last.Sub(first)/bucket+1)
	for _, at := range dl.acked {
		counts[at.Sub(first)/bucket]++
	}
	if len(counts) < 5 {
		return float64(len(dl.acked)) / last.Sub(first).Seconds()
	}
	return median(counts[1:len(counts)-1]) / bucket.Seconds()
}

// checkRound counts a published round's failures: a refused
// submission, a failed round (every message of it), a message missing
// from the output or published more than once, an output in submission
// order.
func (r *run) checkRound(id uint64, out atom.RoundOutcome, msgs [][]byte, errs []error) {
	var admitted [][]byte
	for i, m := range msgs {
		if errs != nil && errs[i] != nil {
			r.failf(1, "round %d: submission %d refused: %v", id, i, errs[i])
			continue
		}
		admitted = append(admitted, m)
	}
	if out.Err != nil {
		r.failf(len(admitted), "round %d failed: %v", id, out.Err)
		return
	}
	want := map[string]int{}
	for _, m := range admitted {
		want[string(m)]++
	}
	inOrder := len(out.Messages) == len(admitted)
	for i, m := range out.Messages {
		want[string(m)]--
		inOrder = inOrder && string(m) == string(admitted[i])
	}
	for _, left := range want {
		if left != 0 { // missing (>0) or published more often than admitted (<0)
			r.failf(max(left, -left), "round %d: a message was published %+d times off its admitted count", id, -left)
		}
	}
	if inOrder && len(admitted) >= 8 {
		r.failf(len(admitted), "round %d: published in submission order", id)
	}
}
