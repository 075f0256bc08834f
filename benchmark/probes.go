package main

import (
	"context"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"atom"
	"atom/internal/cca2"
	"atom/internal/daemon"
	"atom/internal/distributed"
	"atom/internal/dvss"
	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/nizk"
	"atom/internal/parallel"
	"atom/internal/protocol"
	"atom/internal/sim"
	"atom/internal/store"
	"atom/internal/transport"
	"atom/internal/wirecodec"
)

// A probe is a timed direct call into one layer's public functions on
// workload-shaped input, in a process of its own so that no workload's
// heap or goroutines stand beside it. Inputs are fixed sizes; only the
// number of repetitions adapts to the host: at least probeMinIters and,
// time allowing, up to probeMaxIters, of which the median is reported.
const (
	probeMinIters = 5
	probeMaxIters = 20
	probeBudget   = 400 * time.Millisecond

	eccPoints   = 1024 // points per batched ecc call
	trapVectors = 128  // elgamal, wirecodec: vectors of trapPoints points, round_trap's shape
	trapPoints  = 8
	nizkVectors = 256 // nizk: vectors of nizkPoints points, serve_nizk's and ingest_storm's shape
	nizkPoints  = 2
	admitBatch  = 256 // protocol admission: the fast path's MaxBatch
	roundMsgs   = 128 // protocol seal and marshal, store: half a round_trap round
	iterMsgs    = 64  // protocol, sim: messages of one group iteration (1 point each, as the sim models)
	engineMsgs  = 64  // distributed: messages of the round both engines mix
)

// perLayer are the traced run's metrics: the probes (P) and the
// boundary measurements of the traced workload (T). Every traced run
// reports every one; a T metric whose layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	// ecc (P)
	{"ecc.mul_us", "us"},
	{"ecc.mul_oracle_us", "us"},
	{"ecc.mul_same_scalar_us_per_pt", "us"},
	{"ecc.base_mul_batch_us_per_pt", "us"},
	{"ecc.mul_batch_us_per_pt", "us"},
	{"ecc.msm_us_per_pt", "us"},
	{"ecc.point_decode_us", "us"},
	// elgamal (P)
	{"elgamal.shuffle_us_per_vec", "us"},
	{"elgamal.reenc_us_per_vec", "us"},
	{"elgamal.reenc_pads_us_per_vec", "us"},
	{"elgamal.pad_fill_us_per_pad", "us"},
	// nizk (P)
	{"nizk.enc_prove_us", "us"},
	{"nizk.enc_verify_us", "us"},
	{"nizk.enc_verify_batch256_us_per_sub", "us"},
	{"nizk.enc_verify_batch4_us_per_sub", "us"},
	{"nizk.reenc_prove_us_per_vec", "us"},
	{"nizk.reenc_verify_batch_us_per_vec", "us"},
	{"nizk.shuffle_prove_us_per_vec", "us"},
	{"nizk.shuffle_verify_us_per_vec", "us"},
	// cca2, client (P)
	{"cca2.encrypt_us", "us"},
	{"cca2.decrypt_us", "us"},
	{"client.encrypt_trap160_us", "us"},
	{"client.encrypt_nizk32_us", "us"},
	// protocol (P, T)
	{"protocol.admit_batch_us_per_sub", "us"},
	{"protocol.admit_fallback_us_per_sub", "us"},
	{"protocol.seal_ms", "ms"},
	{"protocol.sealed_marshal_ms", "ms"},
	{"protocol.group_iter_trap_ms", "ms"},
	{"protocol.group_iter_nizk_ms", "ms"},
	{"protocol.new_deployment_ms", "ms"},
	{"protocol.mix_ms_per_msg", "ms"},
	{"protocol.iter_ms.layer0", "ms"},
	{"protocol.iter_ms.layer1", "ms"},
	{"protocol.iter_ms.layer2", "ms"},
	{"protocol.finale_ms", "ms"},
	{"protocol.worker_util", "ratio"},
	// sim (P, oracle)
	{"sim.group_iter_trap_pred_ms", "ms"},
	{"sim.group_iter_nizk_pred_ms", "ms"},
	{"sim.pred_over_measured.trap", "ratio"},
	{"sim.pred_over_measured.nizk", "ratio"},
	// parallel (P)
	{"parallel.each_overhead_ns", "ns"},
	{"parallel.speedup_nproc", "ratio"},
	// wirecodec (P)
	{"wirecodec.vectors_enc_us_per_vec", "us"},
	{"wirecodec.vectors_dec_us_per_vec", "us"},
	{"wirecodec.bytes_per_vec", "B"},
	// transport (P)
	{"transport.mem_rtt_us", "us"},
	{"transport.tcp_rtt_us", "us"},
	{"transport.tcp_mb_per_s", "MB/s"},
	// distributed (P, T)
	{"distributed.provision_ms", "ms"},
	{"distributed.engine_overhead_ratio", "ratio"},
	{"distributed.bytes_per_msg", "B"},
	// store (P, T)
	{"store.record_sealed_ms", "ms"},
	{"store.record_outcome_ms", "ms"},
	{"store.open_replay_ms", "ms"},
	{"store.journal_bytes_per_msg", "B"},
	{"store.fsyncs_per_round", "count"},
	// daemon (P, T)
	{"daemon.fast_ack_us_per_sub", "us"},
	{"daemon.gob_submit_us", "us"},
	{"daemon.batch_size_mean.paced", "count"},
	{"daemon.batch_size_mean.flood", "count"},
	{"daemon.fallback_batch_share", "ratio"},
	{"daemon.verify_share", "ratio"},
	// service (T)
	{"service.rounds", "count"},
	{"service.batch_mean", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.drain_msgs_per_s", "1/s"},
	{"service.seal_wait_p50_ms", "ms"},
	// dvss (P)
	{"dvss.run_dkg_k3_ms", "ms"},
	// trace, host (T)
	{"trace.e2e_p50_ms", "ms"},
	{"trace.attributed_share", "ratio"},
	{"trace.spans", "count"},
	{"host.gen_late_p95_ms", "ms"},
}

// runProbes runs the probes in a child process and returns their
// values.
func runProbes() (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--probes")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	values := map[string]float64{}
	if err := json.Unmarshal(out, &values); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return values, nil
}

// sample times fn (which returns the duration of its measured part)
// until the repetition rule above is met and returns the median.
func sample(fn func() time.Duration) time.Duration {
	var took []float64
	for start := time.Now(); len(took) < probeMinIters || (len(took) < probeMaxIters && time.Since(start) < probeBudget); {
		took = append(took, float64(fn()))
	}
	return time.Duration(median(took))
}

// timed samples a call that needs no untimed preparation.
func timed(fn func()) time.Duration {
	return sample(func() time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	})
}

// must stops the probe run on an error only a bug can cause: the
// probes feed the layers valid input of their own making. probeAll's
// caller reports it.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// probeAll runs every probe. A failed probe is a bug in the benchmark
// or the layer; it is reported as an error, not as a value.
func probeAll(tmp string) (m map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe failed: %v", r)
		}
	}()
	m = map[string]float64{}
	for _, layer := range []struct {
		name  string
		probe func(map[string]float64)
	}{
		{"ecc", probeECC}, {"elgamal", probeElGamal}, {"nizk", probeNIZK}, {"client", probeClient},
		{"protocol", func(m map[string]float64) { probeProtocol(m, tmp) }}, {"parallel", probeParallel},
		{"wire", probeWire}, {"distributed", probeDistributed}, {"daemon", probeDaemon},
	} {
		start := time.Now()
		layer.probe(m)
		fmt.Fprintf(os.Stderr, "probes: %s %.1f s\n", layer.name, time.Since(start).Seconds())
	}
	m["dvss.run_dkg_k3_ms"] = millis(timed(func() { must1(dvss.RunDKG(3, 3, rand.Reader)) }))
	return m, nil
}

func perItem(d time.Duration, n int) float64 { return micros(d) / float64(n) }

func probeECC(m map[string]float64) {
	ks := must1(ecc.RandomScalars(rand.Reader, eccPoints))
	ps := ecc.BaseMulBatch(ks)
	const single = 64 // one-at-a-time calls per sample
	m["ecc.mul_us"] = perItem(timed(func() {
		for i := 0; i < single; i++ {
			ps[i].Mul(ks[i+1])
		}
	}), single)
	// The oracle: the standard library's P-256 assembly, big.Int
	// conversion included, as a caller outside the library would pay it.
	curve := elliptic.P256()
	scalars := make([][]byte, single)
	for i := range scalars {
		scalars[i] = ks[i+1].Bytes()
	}
	m["ecc.mul_oracle_us"] = perItem(timed(func() {
		for i := 0; i < single; i++ {
			x, y := elliptic.UnmarshalCompressed(curve, ps[i].Bytes())
			curve.ScalarMult(x, y, scalars[i])
		}
	}), single)
	m["ecc.mul_same_scalar_us_per_pt"] = perItem(timed(func() { ecc.MulSameScalarBatch(ks[0], ps) }), eccPoints)
	m["ecc.base_mul_batch_us_per_pt"] = perItem(timed(func() { ecc.BaseMulBatch(ks) }), eccPoints)
	m["ecc.mul_batch_us_per_pt"] = perItem(timed(func() { ecc.MulBatch(ps[0], ks) }), eccPoints)
	m["ecc.msm_us_per_pt"] = perItem(timed(func() { ecc.MultiScalarMul(ks, ps) }), eccPoints)
	encoded := make([][]byte, eccPoints)
	for i, p := range ps {
		encoded[i] = p.Bytes()
	}
	m["ecc.point_decode_us"] = perItem(timed(func() {
		for _, b := range encoded {
			must1(ecc.PointFromBytes(b))
		}
	}), eccPoints)
}

// groupKey is a key pair warmed as a deployment warms its group keys.
func groupKey() *elgamal.KeyPair {
	kp := must1(elgamal.KeyGen(rand.Reader))
	ecc.WarmBase(kp.PK)
	return kp
}

// vectors encrypts n vectors of the given width under pk, returning the
// randomness too.
func vectors(pk *ecc.Point, n, points int) ([]elgamal.Vector, [][]*ecc.Scalar) {
	vecs, rands := make([]elgamal.Vector, n), make([][]*ecc.Scalar, n)
	for i := range vecs {
		pts := must1(ecc.EmbedMessage(fmt.Appendf(nil, "probe %d", i), points))
		vecs[i], rands[i] = must2(elgamal.EncryptVector(pk, pts, rand.Reader))
	}
	return vecs, rands
}

func must2[A, B any](a A, b B, err error) (A, B) {
	must(err)
	return a, b
}

// probeElGamal times the trap variant's mixing primitives on one
// core; reenc against reenc_pads + pad_fill is the entry the pad bank
// must earn its lines against.
func probeElGamal(m map[string]float64) {
	kp, next := groupKey(), groupKey()
	batch, _ := vectors(kp.PK, trapVectors, trapPoints)
	m["elgamal.shuffle_us_per_vec"] = perItem(timed(func() {
		must(fourth(elgamal.ShuffleBatchPar(kp.PK, batch, rand.Reader, nil)))
	}), trapVectors)
	m["elgamal.reenc_us_per_vec"] = perItem(timed(func() {
		must2(elgamal.ReEncBatchPar(kp.SK, next.PK, batch, rand.Reader, nil))
	}), trapVectors)
	const pads = trapVectors * trapPoints
	var fill []float64
	m["elgamal.reenc_pads_us_per_vec"] = perItem(sample(func() time.Duration {
		pool := elgamal.NewPadPool(next.PK)
		start := time.Now()
		must(pool.Fill(pads, rand.Reader, nil))
		fill = append(fill, float64(time.Since(start)))
		start = time.Now()
		must2(elgamal.ReEncBatchPads(kp.SK, next.PK, batch, rand.Reader, nil, pool))
		return time.Since(start)
	}), trapVectors)
	m["elgamal.pad_fill_us_per_pad"] = perItem(time.Duration(median(fill)), pads)
}

func fourth[A, B, C any](_ A, _ B, _ C, err error) error { return err }

func probeNIZK(m map[string]float64) {
	kp, next := groupKey(), groupKey()
	vecs, rands := vectors(kp.PK, nizkVectors, nizkPoints)
	const single = 32
	proofs := make([]*nizk.EncProof, nizkVectors)
	pks, gids := make([]*ecc.Point, nizkVectors), make([]uint64, nizkVectors)
	for i := range proofs {
		proofs[i] = must1(nizk.ProveEnc(kp.PK, vecs[i], rands[i], 0, rand.Reader))
		pks[i] = kp.PK
	}
	m["nizk.enc_prove_us"] = perItem(timed(func() {
		for i := 0; i < single; i++ {
			must1(nizk.ProveEnc(kp.PK, vecs[i], rands[i], 0, rand.Reader))
		}
	}), single)
	m["nizk.enc_verify_us"] = perItem(timed(func() {
		for i := 0; i < single; i++ {
			must(nizk.VerifyEnc(kp.PK, vecs[i], 0, proofs[i]))
		}
	}), single)
	m["nizk.enc_verify_batch256_us_per_sub"] = perItem(timed(func() {
		must(nizk.VerifyEncBatch(pks, vecs, gids, proofs))
	}), nizkVectors)
	m["nizk.enc_verify_batch4_us_per_sub"] = perItem(timed(func() {
		for i := 0; i+4 <= single; i += 4 {
			must(nizk.VerifyEncBatch(pks[i:i+4], vecs[i:i+4], gids[i:i+4], proofs[i:i+4]))
		}
	}), single)

	outs, rrs := must2(elgamal.ReEncBatchPar(kp.SK, next.PK, vecs, rand.Reader, nil))
	reproofs := make([]*nizk.ReEncProof, nizkVectors)
	for i := range reproofs {
		reproofs[i] = must1(nizk.ProveReEnc(kp.SK, kp.PK, next.PK, vecs[i], outs[i], rrs[i], rand.Reader))
	}
	m["nizk.reenc_prove_us_per_vec"] = perItem(timed(func() {
		for i := 0; i < single; i++ {
			must1(nizk.ProveReEnc(kp.SK, kp.PK, next.PK, vecs[i], outs[i], rrs[i], rand.Reader))
		}
	}), single)
	m["nizk.reenc_verify_batch_us_per_vec"] = perItem(timed(func() {
		must(nizk.VerifyReEncBatch(kp.PK, next.PK, vecs, outs, reproofs, nil))
	}), nizkVectors)

	shuffled, perm, srands, err := elgamal.ShuffleBatchPar(kp.PK, vecs, rand.Reader, nil)
	must(err)
	var proof *nizk.ShufProof
	m["nizk.shuffle_prove_us_per_vec"] = perItem(timed(func() {
		proof = must1(nizk.ProveShuffle(kp.PK, vecs, shuffled, perm, srands, rand.Reader))
	}), nizkVectors)
	m["nizk.shuffle_verify_us_per_vec"] = perItem(timed(func() {
		must(nizk.VerifyShuffle(kp.PK, vecs, shuffled, proof))
	}), nizkVectors)
}

// probeClient times the user side, which runs off every clock: it is
// reported so that work moved onto the client shows. Keys are cold, as
// they are for a user who encrypts one message.
func probeClient(m map[string]float64) {
	kp := must1(cca2.KeyGen(rand.Reader))
	msg := make([]byte, 160)
	var ct []byte
	m["cca2.encrypt_us"] = micros(timed(func() { ct = must1(cca2.Encrypt(kp.PK, msg, rand.Reader)) }))
	m["cca2.decrypt_us"] = micros(timed(func() { must1(cca2.Decrypt(kp.SK, ct)) }))

	entry := must1(elgamal.KeyGen(rand.Reader)).PK.Bytes()
	trap := must1(atom.NewClient(referenceConfig(atom.Trap, 160)))
	m["client.encrypt_trap160_us"] = micros(timed(func() {
		must1(trap.EncryptSubmission(msg[:158], entry, kp.PK.Bytes(), 0))
	}))
	nz := must1(atom.NewClient(referenceConfig(atom.NIZK, 32)))
	m["client.encrypt_nizk32_us"] = micros(timed(func() { must1(nz.EncryptSubmission(msg[:30], entry, nil, 0)) }))
}

// protocolConfig is the reference deployment at the protocol layer.
func protocolConfig(variant protocol.Variant, messageSize int) protocol.Config {
	return protocol.Config{
		NumServers: 12, NumGroups: 4, GroupSize: 3, Iterations: 3, Topology: "square",
		MessageSize: messageSize, Variant: variant,
	}
}

// nizkWires encrypts n valid NIZK submissions for d, submission i
// entering at group i mod G.
func nizkWires(d *protocol.Deployment, n int) [][]byte {
	cfg := d.Config()
	client := must1(protocol.NewClient(&cfg))
	wires := make([][]byte, n)
	for i := range wires {
		gid := i % d.NumGroups()
		sub := must1(client.Submit(fmt.Appendf(nil, "probe %d", i), must1(d.GroupPK(gid)), gid, rand.Reader))
		wires[i] = sub.Encode()
	}
	return wires
}

// trapRound opens a round on d and admits n trap submissions into it.
func trapRound(d *protocol.Deployment, n int) *protocol.RoundState {
	cfg := d.Config()
	client := must1(protocol.NewClient(&cfg))
	rs := must1(d.OpenRound())
	tpk := must1(rs.TrusteePK())
	for i := 0; i < n; i++ {
		gid := i % d.NumGroups()
		msg := fmt.Appendf(nil, "probe %d", i)
		must(rs.SubmitTrapUser(i, must1(client.SubmitTrap(msg, must1(d.GroupPK(gid)), tpk, gid, rand.Reader))))
	}
	return rs
}

func probeProtocol(m map[string]float64, tmp string) {
	m["protocol.new_deployment_ms"] = millis(timed(func() {
		must1(protocol.NewDeployment(protocolConfig(protocol.VariantTrap, 160)))
	}))

	// Admission as the fast path calls it: one batch of 256 into a fresh
	// round, all valid, and with one bad proof that sends the batch
	// through the serial attribution fallback.
	nz := must1(protocol.NewDeployment(protocolConfig(protocol.VariantNIZK, 32)))
	wires := nizkWires(nz, admitBatch)
	users := make([]int, admitBatch)
	admit := func(wantRejected int) time.Duration {
		rs := must1(nz.OpenRound())
		start := time.Now()
		_, stats := rs.SubmitEncodedBatch(users, wires)
		took := time.Since(start)
		if stats.Rejected != wantRejected {
			panic(fmt.Sprintf("admission rejected %d of %d, want %d", stats.Rejected, stats.Size, wantRejected))
		}
		return took
	}
	m["protocol.admit_batch_us_per_sub"] = perItem(sample(func() time.Duration { return admit(0) }), admitBatch)
	wires[admitBatch/2] = must1(transplantProof(wires[admitBatch/2], wires[0]))
	m["protocol.admit_fallback_us_per_sub"] = perItem(sample(func() time.Duration { return admit(1) }), admitBatch)

	// Seal, the sealed round's stable encoding, and the journal writes
	// that carry it, on one round_trap round.
	tr := must1(protocol.NewDeployment(protocolConfig(protocol.VariantTrap, 160)))
	var sealed *protocol.SealedRound
	m["protocol.seal_ms"] = millis(sample(func() time.Duration {
		rs := trapRound(tr, roundMsgs)
		start := time.Now()
		sealed = must1(tr.SealRound(rs))
		return time.Since(start)
	}))
	var blob []byte
	m["protocol.sealed_marshal_ms"] = millis(timed(func() { blob = sealed.Marshal() }))
	probeStore(m, tmp, blob)

	// One group iteration (k = 3, one core) against the cost model's
	// prediction for the same shape: the ratio is recorded, and a drift
	// flags a reproduction error or a regression.
	model := must1(sim.MeasuredCostModel(256))
	for _, v := range []struct {
		name     string
		protocol protocol.Variant
		sim      sim.Variant
	}{{"trap", protocol.VariantTrap, sim.VariantTrap}, {"nizk", protocol.VariantNIZK, sim.VariantNIZK}} {
		h := must1(protocol.NewBenchHarness(3, iterMsgs, 1, v.protocol))
		measured := millis(timed(func() { must(h.RunIteration(protocol.MixConfig{Workers: 1})) }))
		predicted := millis(sim.SingleGroupIteration(3, iterMsgs, v.sim, model))
		m["protocol.group_iter_"+v.name+"_ms"] = measured
		m["sim.group_iter_"+v.name+"_pred_ms"] = predicted
		m["sim.pred_over_measured."+v.name] = predicted / measured
	}
}

func probeStore(m map[string]float64, tmp string, sealed []byte) {
	must(os.MkdirAll(tmp, 0o755))
	dir := must1(os.MkdirTemp(tmp, "probe-"))
	defer os.RemoveAll(dir)
	st := must1(store.Open(filepath.Join(dir, "state")))
	messages := make([][]byte, roundMsgs)
	for i := range messages {
		messages[i] = make([]byte, 158)
	}
	round := uint64(0)
	m["store.record_sealed_ms"] = millis(timed(func() { round++; must(st.RecordSealed(round, sealed)) }))
	round = 0
	m["store.record_outcome_ms"] = millis(timed(func() { round++; must(st.RecordOutcome(round, messages, "")) }))
	must(st.Close())
	m["store.open_replay_ms"] = millis(timed(func() { must(must1(store.Open(filepath.Join(dir, "state"))).Close()) }))
}

func probeParallel(m map[string]float64) {
	const tasks = 1024
	pool := parallel.New(context.Background(), 0)
	m["parallel.each_overhead_ns"] = float64(timed(func() {
		must(pool.Each(tasks, func(int) error { return nil }))
	})) / tasks
	// Figure 7 on the cores that exist: 1 on a one-core host.
	kp := must1(elgamal.KeyGen(rand.Reader))
	batch, _ := vectors(kp.PK, trapVectors, trapPoints)
	shuffle := func(workers int) float64 {
		return float64(timed(func() {
			must(fourth(elgamal.ShuffleBatchPar(kp.PK, batch, rand.Reader, parallel.New(context.Background(), workers))))
		}))
	}
	m["parallel.speedup_nproc"] = shuffle(1) / shuffle(0)
}

func probeWire(m map[string]float64) {
	kp := must1(elgamal.KeyGen(rand.Reader))
	batch, _ := vectors(kp.PK, trapVectors, trapPoints)
	var encoded []byte
	m["wirecodec.vectors_enc_us_per_vec"] = perItem(timed(func() {
		var e wirecodec.Enc
		e.Vectors(batch)
		encoded = e.Out()
	}), trapVectors)
	m["wirecodec.vectors_dec_us_per_vec"] = perItem(timed(func() {
		must1(wirecodec.NewDec(encoded).Vectors())
	}), trapVectors)
	m["wirecodec.bytes_per_vec"] = float64(len(encoded)) / trapVectors

	// Round trips of a 4 KiB message against an echoing peer, and one-way
	// 1 MiB messages closed by a single reply.
	echo := func(a, b transport.Endpoint) {
		go func() {
			for msg := range b.Inbox() {
				if msg.Type == "ping" || msg.Type == "last" {
					_ = b.Send(a.Addr(), &transport.Message{Type: "pong"}) // a closed peer ends the probe
				}
			}
		}()
	}
	rtt := func(a, b transport.Endpoint) time.Duration {
		payload := make([]byte, 4<<10)
		return timed(func() {
			must(a.Send(b.Addr(), &transport.Message{Type: "ping", Payload: payload}))
			<-a.Inbox()
		})
	}
	mem := transport.NewMemNetwork(nil, 0)
	ma, mb := must1(mem.Attach("a")), must1(mem.Attach("b"))
	echo(ma, mb)
	m["transport.mem_rtt_us"] = micros(rtt(ma, mb))
	_, _ = ma.Close(), mb.Close()

	ta, tb := must1(transport.ListenTCP("127.0.0.1:0", 64)), must1(transport.ListenTCP("127.0.0.1:0", 64))
	echo(ta, tb)
	m["transport.tcp_rtt_us"] = micros(rtt(ta, tb))
	const bulk = 16
	payload := make([]byte, 1<<20)
	took := timed(func() {
		for i := 0; i < bulk; i++ {
			typ := "bulk"
			if i == bulk-1 {
				typ = "last"
			}
			must(ta.Send(tb.Addr(), &transport.Message{Type: typ, Payload: payload}))
		}
		<-ta.Inbox()
	})
	m["transport.tcp_mb_per_s"] = bulk / took.Seconds()
	_, _ = ta.Close(), tb.Close()
}

// probeDistributed provisions a cluster over a zero-latency memnet and
// mixes equal rounds on both engines: what the actor path costs beyond
// injected latency.
func probeDistributed(m map[string]float64) {
	d := must1(protocol.NewDeployment(protocolConfig(protocol.VariantTrap, 160)))
	var cluster *distributed.Cluster
	m["distributed.provision_ms"] = millis(sample(func() time.Duration {
		if cluster != nil {
			cluster.Close()
		}
		start := time.Now()
		cluster = must1(distributed.NewCluster(d, distributed.Options{
			Attach: distributed.MemAttach(transport.NewMemNetwork(nil, 256)),
		}))
		return time.Since(start)
	}))
	defer cluster.Close()
	mix := func(run func(*protocol.RoundState) (*protocol.RoundResult, error)) float64 {
		return float64(sample(func() time.Duration {
			rs := trapRound(d, engineMsgs)
			start := time.Now()
			if res := must1(run(rs)); len(res.Messages) != engineMsgs {
				panic(fmt.Sprintf("round published %d of %d messages", len(res.Messages), engineMsgs))
			}
			return time.Since(start)
		}))
	}
	ctx := context.Background()
	inProcess := mix(func(rs *protocol.RoundState) (*protocol.RoundResult, error) { return d.RunRoundCtx(ctx, rs, nil) })
	actors := mix(func(rs *protocol.RoundState) (*protocol.RoundResult, error) { return cluster.Run(ctx, rs, nil) })
	m["distributed.engine_overhead_ratio"] = actors / inProcess
}

// probeDaemon times the fast path without any cryptography behind it —
// framing, queue, admission's decode refusal and the ack — and the
// legacy gob submission it replaced.
func probeDaemon(m map[string]float64) {
	w, _ := findWorkload("ingest_storm")
	d := must1(deploy(w, 0, "", nil))
	defer d.close()
	must(d.serve(atom.ServeOptions{RoundInterval: time.Hour, MaxInFlight: 1}))

	const malformed = 20000
	junk := make([][]byte, malformed)
	for i := range junk {
		junk[i] = make([]byte, 180)
		junk[i][0] = 0xff
	}
	m["daemon.fast_ack_us_per_sub"] = perItem(timed(func() { must1(d.send(junk, 0, 0, time.Time{}, nil)) }), malformed)

	const gobSubs = probeMaxIters
	wires := must1(d.encrypt(make([][]byte, gobSubs), nil))
	client := must1(daemon.Dial(d.srv.Addr()))
	defer client.Close()
	next := 0
	m["daemon.gob_submit_us"] = micros(timed(func() {
		must1(client.SubmitInto(context.Background(), 0, next, wires[next]))
		next++
	}))
}
