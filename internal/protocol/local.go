package protocol

import (
	"context"
	"fmt"
	"sync"
	"time"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/topology"
)

// Collector folds a round's per-group layer reports into the outcome a
// Mixer returns. It flushes IterationStats strictly in layer order —
// firing RoundHooks.IterationDone — and at the end builds the StepTraces
// and the exit payloads. Both drivers feed it: the in-process seats and
// the distributed cluster's coordinator.
type Collector struct {
	job     *MixJob
	workers int
	members []int // gid → live membership
	start   time.Time
	work    []map[int]LayerWork // layer → gid → report
	doneAt  []time.Time         // layer → completion time
	emitted int                 // layers flushed, in order
	exits   map[int][]elgamal.Vector
	iters   []IterationStats
}

// NewCollector starts collecting job's reports. workers is the resolved
// per-group pool size the stats carry; iteration durations count from
// now.
func (d *Deployment) NewCollector(job *MixJob, workers int) *Collector {
	G, T := len(d.groups), d.topo.Iterations()
	c := &Collector{
		job:     job,
		workers: workers,
		members: make([]int, G),
		start:   time.Now(),
		work:    make([]map[int]LayerWork, T),
		doneAt:  make([]time.Time, T),
		exits:   make(map[int][]elgamal.Vector, G),
	}
	for gid := range c.members {
		c.members[gid], _ = d.GroupLiveMembers(gid)
	}
	for layer := range c.work {
		c.work[layer] = make(map[int]LayerWork, G)
	}
	return c
}

// Layer records group gid's report for layer (both in range) and
// flushes every layer now complete. A slow link can deliver layer t's
// last report after layer t+1 completes; IterationDone still observes
// layers 0, 1, 2, … with sane durations.
func (c *Collector) Layer(gid, layer int, w LayerWork) {
	G, T := len(c.members), len(c.work)
	c.work[layer][gid] = w
	if len(c.work[layer]) == G {
		c.doneAt[layer] = time.Now()
	}
	for c.emitted < T && len(c.work[c.emitted]) == G {
		prev := c.start
		if c.emitted > 0 {
			prev = c.doneAt[c.emitted-1]
		}
		it := IterationStats{
			Round: c.job.Round, Layer: c.emitted, Workers: c.workers,
			Duration: max(c.doneAt[c.emitted].Sub(prev), 0),
		}
		for _, w := range c.work[c.emitted] {
			it.Messages += w.Msgs
			it.Shuffles += w.Shuffles
			it.ReEncs += w.ReEncs
			it.ProofsChecked += w.Proofs
			it.WorkerBusy += time.Duration(w.BusyNs)
			it.Codec += time.Duration(w.CodecNs)
			if w.Msgs > 0 {
				it.ActiveGroups++
			}
		}
		for _, n := range c.members {
			it.Members += n
		}
		c.iters = append(c.iters, it)
		if h := c.job.Hooks; h != nil && h.IterationDone != nil {
			h.IterationDone(it)
		}
		c.emitted++
	}
}

// Exit records exit group gid's plaintext vectors (gid in range); the
// first report wins and a second cannot overwrite it.
func (c *Collector) Exit(gid int, vecs []elgamal.Vector) {
	if _, dup := c.exits[gid]; !dup {
		c.exits[gid] = vecs
	}
}

// Done reports whether every exit batch and every layer report has
// landed (the exit vectors can arrive ahead of the last layer's report).
func (c *Collector) Done() bool {
	return len(c.exits) == len(c.members) && c.emitted == len(c.work)
}

// Outcome builds the completed round's exit payloads and traces.
func (c *Collector) Outcome() (*MixOutcome, error) {
	out := &MixOutcome{ExitPayloads: make(map[int][][]byte, len(c.exits)), Iterations: c.iters}
	for gid, vecs := range c.exits {
		payloads := make([][]byte, len(vecs))
		for i, vec := range vecs {
			p, err := ecc.ExtractMessage(elgamal.PlaintextVector(vec))
			if err != nil {
				return nil, fmt.Errorf("protocol: exit group %d: message %d: %w", gid, i, err)
			}
			payloads[i] = p
		}
		out.ExitPayloads[gid] = payloads
	}
	for layer, byGID := range c.work {
		for gid, members := range c.members {
			w := byGID[gid]
			out.Traces = append(out.Traces, StepTrace{
				GID: gid, Layer: layer,
				Shuffles: w.Shuffles, ReEncs: w.ReEncs, ProofsChecked: w.Proofs,
				Workers: c.workers, Busy: time.Duration(w.BusyNs), Codec: time.Duration(w.CodecNs),
				Members: members,
			})
		}
	}
	return out, nil
}

// seatNet runs seats in this process. Each seat is served by its own
// mailbox goroutine, and steps pass between mailboxes by reference — no
// encoding, no copying. Every mailbox holds more steps than its seat can
// receive in one run — per layer at most one batch per group plus the
// closing divide and re-encryption steps — so a send never blocks.
type seatNet struct {
	layers  int // layers the net mixes; the last one reports instead of forwarding
	seats   [][]*Seat
	boxes   [][]chan *Step
	reports chan layerReport
	errs    chan error
}

// layerReport is one group's finished layer as its first seat hands it
// to the in-process driver, with the plaintext vectors at the exit layer.
type layerReport struct {
	gid, layer int
	work       LayerWork
	out        []elgamal.Vector
}

// newSeatNet seats every chain position of every roster (rosters[gid]
// for each of topo's groups) for a run of topo's first `layers` layers.
func newSeatNet(rosters []*GroupRoster, topo topology.Topology, layers int, variant Variant, workers int) (*seatNet, error) {
	G := len(rosters)
	n := &seatNet{
		layers:  layers,
		seats:   make([][]*Seat, G),
		boxes:   make([][]chan *Step, G),
		reports: make(chan layerReport, G*layers),
	}
	groupPKs := make([]*ecc.Point, G)
	for gid, r := range rosters {
		groupPKs[gid] = r.PK
	}
	numSeats := 0
	for gid, r := range rosters {
		n.seats[gid] = make([]*Seat, len(r.Indices))
		n.boxes[gid] = make([]chan *Step, len(r.Indices))
		for pos := range r.Indices {
			seat, err := NewSeat(SeatConfig{
				GID: gid, Pos: pos,
				Indices: r.Indices, Secret: r.Secrets[pos], EffPubs: r.EffPubs,
				GroupPKs: groupPKs, Variant: variant, Workers: workers, Topo: topo,
			}, localLink{n: n, gid: gid})
			if err != nil {
				return nil, err
			}
			n.seats[gid][pos] = seat
			n.boxes[gid][pos] = make(chan *Step, layers*(G+2))
			numSeats++
		}
	}
	n.errs = make(chan error, numSeats) // each seat fails at most once
	return n, nil
}

// start serves every seat until ctx ends or the seat fails; the returned
// stop cancels the run and waits for every mailbox goroutine.
func (n *seatNet) start(ctx context.Context) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for gid, row := range n.seats {
		for pos, seat := range row {
			wg.Add(1)
			go func(seat *Seat, box chan *Step) {
				defer wg.Done()
				for {
					select {
					case st := <-box:
						if err := seat.Handle(ctx, st); err != nil {
							n.errs <- err
							return
						}
					case <-ctx.Done():
						return
					}
				}
			}(seat, n.boxes[gid][pos])
		}
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// inject hands each group its layer-0 batch.
func (n *seatNet) inject(round uint64, workers int, batches [][]elgamal.Vector) {
	for gid, box := range n.boxes {
		box[0] <- &Step{Kind: StepBatch, Round: round, Src: -1, Workers: workers, Vecs: batches[gid]}
	}
}

// localLink is the by-reference SeatLink of one group's seats.
type localLink struct {
	n   *seatNet
	gid int
}

// Chain implements SeatLink.
func (l localLink) Chain(_ context.Context, pos int, s *Step) error {
	l.n.boxes[l.gid][pos] <- s
	return nil
}

// Finish implements SeatLink. The report goes first, so the driver sees
// a layer complete before any step of the next one exists.
func (l localLink) Finish(_ context.Context, round uint64, layer int, dests []int, batches [][]elgamal.Vector, w LayerWork) error {
	rep := layerReport{gid: l.gid, layer: layer, work: w}
	if dests == nil {
		rep.out = batches[0]
	}
	l.n.reports <- rep
	if layer+1 < l.n.layers {
		for i, dst := range dests {
			l.n.boxes[dst][0] <- &Step{Kind: StepBatch, Round: round, Layer: layer + 1, Src: l.gid, Workers: w.Workers, Vecs: batches[i]}
		}
	}
	return nil
}

// localDriver is the in-process Mixer: per round it seats every chain
// member of every group from the deployment's rosters and runs them over
// the by-reference link.
type localDriver struct{ d *Deployment }

// MixRound implements Mixer.
func (m localDriver) MixRound(job *MixJob) (*MixOutcome, error) {
	d := m.d
	ctx := job.Ctx
	rosters := make([]*GroupRoster, len(d.groups))
	for gid := range rosters {
		r, err := d.GroupRoster(gid)
		if err != nil {
			return nil, err
		}
		rosters[gid] = r
	}
	n, err := newSeatNet(rosters, d.topo, d.topo.Iterations(), job.Variant, job.Workers)
	if err != nil {
		return nil, err
	}
	if a := job.Adversary; a != nil && a.GID >= 0 && a.GID < len(n.seats) && a.Member >= 0 && a.Member < len(n.seats[a.GID]) {
		n.seats[a.GID][a.Member].Tamper = func(_ uint64, layer int, out []elgamal.Vector) []elgamal.Vector {
			if layer != a.Layer {
				return nil
			}
			return a.Tamper(out)
		}
	}
	col := d.NewCollector(job, job.Workers)
	stop := n.start(ctx)
	defer stop()
	n.inject(job.Round, job.Workers, job.Batches)
	for !col.Done() {
		select {
		case rep := <-n.reports:
			col.Layer(rep.gid, rep.layer, rep.work)
			if rep.layer == d.topo.Iterations()-1 {
				col.Exit(rep.gid, rep.out)
			}
		case err := <-n.errs:
			if ctx.Err() != nil {
				return nil, fmt.Errorf("protocol: round %d canceled: %w", job.Round, ctx.Err())
			}
			return nil, err
		case <-ctx.Done():
			return nil, fmt.Errorf("protocol: round %d canceled: %w", job.Round, ctx.Err())
		}
	}
	return col.Outcome()
}
