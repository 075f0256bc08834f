// Package daemon serves an Atom deployment over TCP: remote clients
// fetch the deployment's public keys, perform all cryptography locally
// (padding, onion encryption, NIZKs, traps), and ship opaque wire
// submissions into the continuous service's open round; the service
// seals and mixes rounds on its own schedule and clients await the
// round that admitted them. cmd/atomd and cmd/atomclient are thin
// wrappers around this package.
//
// There is one client protocol (wire.go) on one listener, and the
// daemon answers every request on the connection it arrived on — it
// never dials out. A connection opens with internal/transport's
// versioned hello; then a client asks for info (the deployment and the
// open round), pipelines submits that the daemon acknowledges
// asynchronously in coalesced ack frames, and awaits a round's
// published result. One connection multiplexes any number of logical
// clients. Admission is batched: submissions from every connection
// drain into one queue, and workers flush batches through
// Service.SubmitEncodedBatch, which verifies each batch's admission
// proofs as a single random-linear-combination check. Round r+1
// ingests while round r mixes. A failed request carries its error in
// internal/taxonomy's wire form, so the client returns an error that
// matches exactly the atom.Err* sentinels (and context errors) the
// server's did, with the same BlamedMember/LostMember attribution.
//
// The daemon hosts the full multi-group deployment in one process —
// the configuration the paper's single-machine experiments use; with
// a distributed.Cluster as the service's mixer the groups run on
// member hosts instead.
package daemon

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"atom"
)

// Info describes a deployment, and its open round, to clients.
type Info struct {
	Groups      int
	MessageSize int
	Trap        bool
	EntryKeys   [][]byte
	// Round is the continuous service's open round when the info was
	// taken.
	Round RoundInfo
}

// RoundInfo describes the service's open round.
type RoundInfo struct {
	// ID is the server-assigned round id, passed to Submit/Await.
	ID uint64
	// TrusteeKey is the round's trustee public key (trap variant only);
	// submissions into this round must be encrypted against it.
	TrusteeKey []byte
}

// errNotServing fails requests that arrive before EnableService.
var errNotServing = fmt.Errorf("daemon: not serving (no continuous service)")

// Server hosts a deployment behind a TCP listener.
type Server struct {
	network *atom.Network
	cfg     atom.Config
	metrics *Metrics

	// svc, when non-nil, is the continuous ingestion-and-mixing
	// pipeline every request targets.
	svc atomic.Pointer[atom.Service]

	// workers is the number of admission workers draining the queue
	// (GOMAXPROCS capped at 4: on a single core one worker forms the
	// largest batches). They start with the first accept loop.
	workers   int
	startOnce sync.Once
	workerWG  sync.WaitGroup

	queue    chan sub
	queueHWM atomic.Int64
	bufs     sync.Pool

	ln        net.Listener // Addr's; Serve accepts on it
	mu        sync.Mutex
	listeners []net.Listener // ln and EnableFastPath's, for Close
	conns     map[*conn]bool
	closing   bool

	readers sync.WaitGroup
	awaits  sync.WaitGroup
}

// NewServer builds the deployment and starts listening on addr
// (":0" for an ephemeral port).
func NewServer(addr string, cfg atom.Config) (*Server, error) {
	network, err := atom.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	return NewServerWith(addr, cfg, network, nil)
}

// NewServerWith hosts an existing network — e.g. the crash-restart
// path, where the deployment was rebuilt from a state directory
// (atom.RestoreNetwork) instead of a fresh key generation. m, when
// non-nil, receives the connection gauge and queue high-water mark.
func NewServerWith(addr string, cfg atom.Config, network *atom.Network, m *Metrics) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		network:   network,
		cfg:       cfg,
		metrics:   m,
		workers:   min(runtime.GOMAXPROCS(0), 4),
		queue:     make(chan sub, admitQueueDepth),
		ln:        ln,
		listeners: []net.Listener{ln},
		conns:     make(map[*conn]bool),
	}
	s.bufs.New = func() any { return &frameBuf{pool: &s.bufs} }
	return s, nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Network exposes the hosted deployment (e.g. to install an Observer).
func (s *Server) Network() *atom.Network { return s.network }

// EnableService starts the continuous ingestion-and-mixing pipeline
// (atom.Network.Serve) every request talks to; until then requests fail
// typed. The ctx is the pipeline's hard-stop switch; Close drains it
// gracefully.
func (s *Server) EnableService(ctx context.Context, opts atom.ServeOptions) error {
	svc, err := s.network.Serve(ctx, opts)
	if err != nil {
		return err
	}
	s.svc.Store(svc)
	return nil
}

// Service returns the continuous pipeline, nil before EnableService —
// e.g. for operators reading queue depths.
func (s *Server) Service() *atom.Service { return s.svc.Load() }

// Serve accepts client connections until Close. It is safe to run in a
// goroutine. Each connection is served by its own reader; awaits park
// off it, so a connection keeps submitting while its rounds mix.
func (s *Server) Serve() { s.serve(s.ln) }

// FastPathOptions is the empty option set of EnableFastPath.
type FastPathOptions struct{}

// FastClient is the one client type under the name the reference
// benchmark compiles against.
type FastClient = Client

// DialFast is Dial, under the name the reference benchmark compiles
// against.
func DialFast(addr string) (*Client, error) { return Dial(addr) }

// EnableFastPath opens one more listener on addr (":0" for an ephemeral
// port) running the same accept loop as Serve, and returns its address.
// It is kept for the reference benchmark, which dials it; there is no
// second protocol.
func (s *Server) EnableFastPath(addr string, _ FastPathOptions) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("daemon: server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	go s.serve(ln)
	return ln.Addr().String(), nil
}

// serve is the accept loop of one listener.
func (s *Server) serve(ln net.Listener) {
	s.startOnce.Do(func() {
		s.workerWG.Add(s.workers)
		for range s.workers {
			go s.worker()
		}
	})
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		// The ack buffer holds four full ack frames' worth of verdicts, so
		// an admission flush never waits on a reader's socket; a client
		// that falls further behind is shut (see conn.ack).
		c := &conn{s: s, c: nc, acks: make(chan ack, 4*maxAcks)}
		c.ctx, c.shutCtx = context.WithCancel(context.Background())
		s.conns[c] = true
		s.readers.Add(1)
		s.mu.Unlock()
		if m := s.metrics; m != nil {
			m.submitConns.Add(1)
		}
		go c.run()
	}
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	known := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if known && s.metrics != nil {
		s.metrics.submitConns.Add(-1)
	}
}

// Close shuts the daemon down: the listeners and connections close
// (stopping the readers), the workers flush the queued submissions, the
// continuous service (if enabled) drains gracefully, and in-flight
// awaits finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	lns := s.listeners
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		c.shut()
	}
	s.readers.Wait()
	close(s.queue)
	s.startOnce.Do(func() {}) // no accept loop ran: no workers to wait for
	s.workerWG.Wait()
	if svc := s.svc.Load(); svc != nil {
		_ = svc.Close()
	}
	s.awaits.Wait()
	return nil
}
