package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"atom"
)

// The traced run sees the program from outside: the generator's own
// timestamps around the calls it makes, and the public atom.Observer
// callbacks. Spans inside the program are a later change's job.

type batchEvent struct {
	at    time.Time
	round uint64
	stats atom.AdmitBatchStats
}

type sealEvent struct {
	at     time.Time
	ingest atom.IngestStats
}

type iterEvent struct {
	at    time.Time
	stats atom.IterationStats
}

// obsLog keeps what the Observer reported, in memory, until the run
// ends.
type obsLog struct {
	mu      sync.Mutex
	batches []batchEvent
	sealed  map[uint64]sealEvent
	iters   map[uint64][]iterEvent
	mixed   map[uint64]time.Time
}

func newObsLog() *obsLog {
	l := &obsLog{}
	l.reset()
	return l
}

func (l *obsLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = nil
	l.sealed = map[uint64]sealEvent{}
	l.iters = map[uint64][]iterEvent{}
	l.mixed = map[uint64]time.Time{}
}

func (l *obsLog) observer() *atom.Observer {
	return &atom.Observer{
		AdmissionBatch: func(round uint64, st atom.AdmitBatchStats) {
			now := time.Now()
			l.mu.Lock()
			l.batches = append(l.batches, batchEvent{now, round, st})
			l.mu.Unlock()
		},
		RoundSealed: func(round uint64, ingest atom.IngestStats) {
			now := time.Now()
			l.mu.Lock()
			l.sealed[round] = sealEvent{now, ingest}
			l.mu.Unlock()
		},
		IterationDone: func(st atom.IterationStats) {
			now := time.Now()
			l.mu.Lock()
			l.iters[st.Round] = append(l.iters[st.Round], iterEvent{now, st})
			l.mu.Unlock()
		},
		RoundMixed: func(st atom.RoundStats) {
			now := time.Now()
			l.mu.Lock()
			l.mixed[st.Round] = now
			l.mu.Unlock()
		},
	}
}

// span is one timed interval. Spans of one round share its id; Parent
// names the span that caused this one (0 for a root). Self is the
// duration minus the part of it that child spans cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   uint64 `json:"round"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	SelfUS  int64  `json:"self_us"`
}

type trace struct {
	origin time.Time
	spans  []span
}

// add records [start, end] under parent and returns the new span's id.
// Empty and inverted intervals are dropped (id 0).
func (t *trace) add(parent int, round uint64, name string, start, end time.Time) int {
	if !end.After(start) {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: round, Name: name,
		StartUS: start.Sub(t.origin).Microseconds(), EndUS: end.Sub(t.origin).Microseconds(),
	})
	return id
}

// fillSelf computes every span's self time: its duration minus the
// union of its children's intervals, clipped to the span.
func (t *trace) fillSelf() {
	children := map[int][]int{}
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartUS < t.spans[kids[b]].StartUS })
		covered, edge := int64(0), s.StartUS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartUS, edge), min(t.spans[k].EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
	}
}

// attributedShare is the median, over the round roots, of the share of
// a round's time that named child spans account for.
func (t *trace) attributedShare() float64 {
	var shares []float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == "round" {
			shares = append(shares, 1-float64(s.SelfUS)/float64(s.EndUS-s.StartUS))
		}
	}
	return median(shares)
}

// buildTrace turns the generator's records and the Observer's log into
// spans.
func (r *run) buildTrace() *trace {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	t := &trace{origin: time.Now()}
	for _, rec := range r.rounds {
		if rec.first.Before(t.origin) {
			t.origin = rec.first
		}
	}
	for _, seg := range r.segments {
		if seg.start.Before(t.origin) {
			t.origin = seg.start
		}
	}
	roots := map[uint64]int{}
	for _, rec := range r.rounds {
		root := t.add(0, rec.id, "round", rec.first, rec.published)
		roots[rec.id] = root
		sealed, mixedAt := l.sealed[rec.id].at, l.mixed[rec.id]
		if rec.openLoop {
			t.add(root, rec.id, "service.seal_wait", rec.first, sealed)
		} else {
			t.add(root, rec.id, "daemon.admit", rec.first, rec.lastAck)
			t.add(root, rec.id, "service.seal", rec.lastAck, sealed)
		}
		mixStart := mixedAt.Add(-rec.stats.Duration)
		t.add(root, rec.id, "service.queue_wait", sealed, mixStart)
		mix := t.add(root, rec.id, "protocol.mix", mixStart, mixedAt)
		lastIter := mixStart
		for _, it := range l.iters[rec.id] {
			t.add(mix, rec.id, fmt.Sprint("protocol.iter.layer", it.stats.Layer), it.at.Add(-it.stats.Duration), it.at)
			lastIter = it.at
		}
		t.add(mix, rec.id, "protocol.finale", lastIter, mixedAt)
		t.add(root, rec.id, "service.publish", mixedAt, rec.published)
	}
	segRoots := make([]int, len(r.segments))
	for i, seg := range r.segments {
		segRoots[i] = t.add(0, 0, "segment."+seg.name, seg.start, seg.end)
	}
	for _, b := range l.batches {
		parent := roots[b.round]
		for i, seg := range r.segments {
			if !b.at.Before(seg.start) && !b.at.After(seg.end) {
				parent = segRoots[i]
			}
		}
		t.add(parent, b.round, "protocol.admit_verify", b.at.Add(-b.stats.VerifyTime), b.at)
	}
	t.fillSelf()
	return t
}

func (t *trace) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(map[string]any{"workload": workload, "seed": seed, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), body, 0o644)
}

// layerMetrics are the traced run's per-layer numbers: ratios and
// counts taken at the boundaries the generator and the Observer can
// see.
func (r *run) layerMetrics(t *trace) map[string]float64 {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]float64{}

	var mixMS, drainS, finale, queueWait, util, sealWait []float64
	layers := map[int][]float64{}
	var msgs, depth int
	for _, rec := range r.rounds {
		st := rec.stats
		msgs += rec.messages
		mixMS = append(mixMS, millis(st.Duration))
		drainS = append(drainS, st.Drain.Seconds())
		queueWait = append(queueWait, millis(st.Drain-st.Duration))
		util = append(util, st.Utilization())
		depth = max(depth, st.Ingest.Queued)
		iters := time.Duration(0)
		for _, it := range st.PerIteration {
			iters += it.Duration
			layers[it.Layer] = append(layers[it.Layer], millis(it.Duration))
		}
		finale = append(finale, millis(st.Duration-iters))
		if sealed, ok := l.sealed[rec.id]; ok {
			for _, due := range rec.due {
				sealWait = append(sealWait, millis(sealed.at.Sub(due)))
			}
		}
	}
	m["protocol.mix_ms_per_msg"] = ratio(sum(mixMS), float64(msgs))
	for layer := 0; layer < 3; layer++ {
		m[fmt.Sprint("protocol.iter_ms.layer", layer)] = median(layers[layer])
	}
	m["protocol.finale_ms"] = median(finale)
	m["protocol.worker_util"] = mean(util)
	m["service.rounds"] = float64(len(r.rounds))
	m["service.batch_mean"] = ratio(float64(msgs), float64(len(r.rounds)))
	m["service.queue_wait_ms"] = median(queueWait)
	m["service.queue_depth_max"] = float64(depth)
	m["service.drain_msgs_per_s"] = ratio(float64(msgs), sum(drainS))
	m["service.seal_wait_p50_ms"] = median(sealWait)

	var paced, flood []float64
	var fallback int
	var verify time.Duration
	for _, b := range l.batches {
		isPaced := false
		for _, seg := range r.segments {
			isPaced = isPaced || seg.name == "paced" && !b.at.Before(seg.start) && !b.at.After(seg.end)
		}
		if isPaced {
			paced = append(paced, float64(b.stats.Size))
		} else {
			flood = append(flood, float64(b.stats.Size))
		}
		if b.stats.Rejected > 0 {
			fallback++
		}
		verify += b.stats.VerifyTime
	}
	m["daemon.batch_size_mean.paced"] = mean(paced)
	m["daemon.batch_size_mean.flood"] = mean(flood)
	m["daemon.fallback_batch_share"] = ratio(float64(fallback), float64(len(l.batches)))
	m["daemon.verify_share"] = ratio(verify.Seconds(), r.clock.Seconds()*float64(runtime.GOMAXPROCS(0)))

	// 0 on the workloads that run without a journal or a cluster.
	m["store.journal_bytes_per_msg"] = ratio(float64(r.final.journalBytes-r.base.journalBytes), float64(msgs))
	m["store.fsyncs_per_round"] = ratio(float64(r.final.fsyncs-r.base.fsyncs), float64(len(r.rounds)))
	m["distributed.bytes_per_msg"] = ratio(float64(r.final.transportBytes-r.base.transportBytes), float64(msgs))

	m["trace.e2e_p50_ms"] = median(r.e2e)
	m["trace.attributed_share"] = t.attributedShare()
	m["trace.spans"] = float64(len(t.spans))
	m["host.gen_late_p95_ms"] = percentile(r.late, 95)
	return m
}
