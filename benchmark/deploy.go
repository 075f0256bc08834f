package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"atom"
	"atom/internal/daemon"
	"atom/internal/distributed"
	"atom/internal/store"
	"atom/internal/transport"
)

// referenceConfig is the one deployment every workload runs against:
// the atomd defaults (12 servers in 4 groups of 3, 3 iterations over
// the square network), automatic mix workers, pad bank and chunk
// streaming off.
func referenceConfig(variant atom.Variant, messageSize int) atom.Config {
	return atom.Config{
		Servers: 12, Groups: 4, GroupSize: 3, Iterations: 3, Topology: "square",
		MessageSize: messageSize, Variant: variant,
	}
}

const (
	connections = 2 // fast-path connections of the load generator
	roundWait   = 60 * time.Second
)

// published is one round as the generator saw it leave the service.
type published struct {
	at  time.Time
	out atom.RoundOutcome
}

// deployment is the reference deployment plus the generator's handles
// on it: daemon.NewServer + EnableService + EnableFastPath over TCP
// loopback, optionally mixing over a distributed cluster on a latency
// memnet and journaling to a real store.
type deployment struct {
	cfg    atom.Config
	srv    *daemon.Server
	cancel context.CancelFunc // hard stop of the current service
	conns  []*daemon.FastClient
	enc    *atom.Client
	keys   [][]byte

	cluster *distributed.Cluster
	memnet  *transport.MemNetwork
	journal *store.Store
	dir     string

	mu    sync.Mutex
	slots map[uint64]chan published
}

// deploy builds the deployment up to the point where a service can be
// enabled on it: server, optional cluster and journal, fast path, the
// generator's connections and encryption client.
func deploy(w workload, seed uint64, tmp string, obs *atom.Observer) (*deployment, error) {
	d := &deployment{cfg: referenceConfig(w.variant, w.messageSize), slots: map[uint64]chan published{}}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	var err error
	if d.srv, err = daemon.NewServer("127.0.0.1:0", d.cfg); err != nil {
		return fail(err)
	}
	go d.srv.Serve()
	d.srv.Network().SetObserver(obs)
	if w.cluster {
		d.memnet = transport.NewMemNetwork(
			transport.PairwiseLatency(fmt.Sprint("benchmark-", seed), 5*time.Millisecond, 20*time.Millisecond), 256)
		d.cluster, err = distributed.NewCluster(d.srv.Network().Deployment(), distributed.Options{
			Attach: distributed.MemAttach(d.memnet),
		})
		if err != nil {
			return fail(err)
		}
		if err = os.MkdirAll(tmp, 0o755); err != nil {
			return fail(err)
		}
		if d.dir, err = os.MkdirTemp(tmp, "journal-"); err != nil {
			return fail(err)
		}
		if d.journal, err = store.Open(filepath.Join(d.dir, "state")); err != nil {
			return fail(err)
		}
	}
	addr, err := d.srv.EnableFastPath("127.0.0.1:0", daemon.FastPathOptions{})
	if err != nil {
		return fail(err)
	}
	for i := 0; i < connections; i++ {
		fc, err := daemon.DialFast(addr)
		if err != nil {
			return fail(err)
		}
		d.conns = append(d.conns, fc)
	}
	if d.enc, err = atom.NewClient(d.cfg); err != nil {
		return fail(err)
	}
	for gid := 0; gid < d.cfg.Groups; gid++ {
		key, err := d.srv.Network().EntryKey(gid)
		if err != nil {
			return fail(err)
		}
		d.keys = append(d.keys, key)
	}
	return d, nil
}

// setup builds the deployment and runs the off-clock warm-up round
// (first rounds run 6–12 % slow while comb tables fill). The returned
// duration is the set-up time a user waits before the first measured
// submission: it leaves out the generator's own encryption of the
// warm-up messages.
func setup(w workload, g *gen, sz sizes, tmp string, obs *atom.Observer) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(w, g.seed, tmp, obs)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*deployment, time.Duration, error) {
		d.close()
		return nil, 0, fmt.Errorf("warm-up round: %w", err)
	}
	if err = d.serve(atom.ServeOptions{RoundInterval: time.Hour, MaxBatch: sz.warmup, MaxInFlight: 1}); err != nil {
		return fail(err)
	}
	warm, err := d.prepare(g.messages(w.name+"/warmup", sz.warmup, w.messageSize-2))
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start) - warm.encrypt
	if err = d.flood(warm, 0); err != nil {
		return fail(err)
	}
	if warm.out.Err != nil || len(warm.out.Messages) != sz.warmup {
		return fail(fmt.Errorf("published %d of %d messages: %v", len(warm.out.Messages), sz.warmup, warm.out.Err))
	}
	return d, elapsed + warm.at.Sub(warm.sent[0]), nil
}

// serve replaces the deployment's continuous service. The previous one
// is stopped hard: whatever its open round holds is dropped, not mixed.
func (d *deployment) serve(opts atom.ServeOptions) error {
	d.stopService()
	if d.cluster != nil {
		opts.Mixer = d.cluster
		opts.Journal = d.journal
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := d.srv.EnableService(ctx, opts); err != nil {
		cancel()
		return err
	}
	d.cancel = cancel
	go d.collect(d.srv.Service().Results())
	return nil
}

func (d *deployment) stopService() {
	if d.cancel == nil {
		return
	}
	d.cancel()
	_ = d.srv.Service().Close() // journal errors surface as missing outcomes
	d.cancel = nil
}

// collect stamps every published round on arrival. The stream is only
// lossy for a consumer that stops reading; this one never does.
func (d *deployment) collect(results <-chan atom.RoundOutcome) {
	for out := range results {
		d.slot(out.Round) <- published{at: time.Now(), out: out}
	}
}

func (d *deployment) slot(round uint64) chan published {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch, ok := d.slots[round]
	if !ok {
		ch = make(chan published, 1)
		d.slots[round] = ch
	}
	return ch
}

// await returns the round's publication, which it consumes.
func (d *deployment) await(round uint64) (published, error) {
	select {
	case p := <-d.slot(round):
		return p, nil
	case <-time.After(roundWait):
		return published{}, fmt.Errorf("round %d not published within %v", round, roundWait)
	}
}

func (d *deployment) close() {
	for _, fc := range d.conns {
		_ = fc.Close()
	}
	d.stopService()
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.cluster != nil {
		d.cluster.Close()
	}
	if d.journal != nil {
		_ = d.journal.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// encrypt pre-encrypts msgs for the round with the given trustee key
// (nil for NIZK), message i entering at group i mod G. This is the
// user-side cost and runs off every clock, one goroutine per
// connection's worth of messages.
func (d *deployment) encrypt(msgs [][]byte, trusteeKey []byte) ([][]byte, error) {
	wires := make([][]byte, len(msgs))
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(msgs); i += connections {
				gid := i % d.cfg.Groups
				wire, err := d.enc.EncryptSubmission(msgs[i], d.keys[gid], trusteeKey, gid)
				if err != nil {
					errs[c] = fmt.Errorf("encrypting message %d: %w", i, err)
					return
				}
				wires[i] = wire
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return wires, nil
}

// delivery records what the generator saw of a run of submissions: when
// each was handed to its connection, when its ack arrived, the round
// that admitted it and the typed error that refused it.
type delivery struct {
	sent, acked []time.Time
	rounds      []uint64
	errs        []error
}

// send submits wires over the fast path in order, submission i on
// connection i mod connections under user id userBase+i, pinned to round
// pin (0 = whichever round is open). With a schedule, submission i is
// held until start+due[i] (open loop); without one the connections are
// flooded, held back only by TCP. One goroutine feeds both connections:
// on two cores a second sender takes the core the daemon's readers need,
// and how a flood then splits into admission batches becomes a lottery.
// It returns once every ack has arrived.
func (d *deployment) send(wires [][]byte, userBase int, pin uint64, start time.Time, due []time.Duration) (*delivery, error) {
	n := len(wires)
	dl := &delivery{
		sent: make([]time.Time, n), acked: make([]time.Time, n),
		rounds: make([]uint64, n), errs: make([]error, n),
	}
	var acks sync.WaitGroup
	acks.Add(n)
	for i, wire := range wires {
		if due != nil {
			time.Sleep(time.Until(start.Add(due[i])))
		}
		dl.sent[i] = time.Now()
		d.conns[i%connections].Submit(pin, userBase+i, wire, func(round uint64, err error) {
			dl.acked[i], dl.rounds[i], dl.errs[i] = time.Now(), round, err
			acks.Done()
		})
	}
	for _, fc := range d.conns {
		_ = fc.Flush() // a write error fails the pending callbacks
	}
	done := make(chan struct{})
	go func() { acks.Wait(); close(done) }()
	select {
	case <-done:
		return dl, nil
	case <-time.After(roundWait):
		return nil, fmt.Errorf("%d submissions not all acknowledged within %v", n, roundWait)
	}
}

// roundReport is one closed-loop round: flood, seal at the batch cap,
// publish.
type roundReport struct {
	*delivery
	published
	id      uint64
	wires   [][]byte
	encrypt time.Duration // generator time spent pre-encrypting, off the clock
}

// prepare readies one round of len(msgs) messages for the open round,
// whose batch cap must equal len(msgs). It is the off-clock half: fetch
// the round and pre-encrypt (trap encodings bind to the round's trustee
// key).
func (d *deployment) prepare(msgs [][]byte) (*roundReport, error) {
	id, trusteeKey, err := d.srv.Service().Current()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	wires, err := d.encrypt(msgs, trusteeKey)
	if err != nil {
		return nil, err
	}
	return &roundReport{id: id, wires: wires, encrypt: time.Since(start)}, nil
}

// flood is the on-clock half: flood the fast path, let the cap seal,
// wait for the publish.
func (d *deployment) flood(r *roundReport, userBase int) error {
	var pin uint64
	if d.cfg.Variant == atom.Trap {
		pin = r.id
	}
	var err error
	if r.delivery, err = d.send(r.wires, userBase, pin, time.Time{}, nil); err != nil {
		return err
	}
	r.published, err = d.await(r.id)
	return err
}
