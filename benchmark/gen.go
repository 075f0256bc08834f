package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// gen derives every workload input from the seed: message bytes,
// arrival schedules and offender positions. Each call names its own
// stream, so the bytes of one input never depend on how many others a
// run drew before it, and everything drawn is folded into a digest that
// is equal for equal seeds (and equal round counts). The program under
// test keeps crypto/rand; nothing here reaches it except as input.
type gen struct {
	seed   uint64
	digest hash.Hash
}

func newGen(seed uint64) *gen { return &gen{seed: seed, digest: sha256.New()} }

func (g *gen) stream(label string) *rand.ChaCha8 {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], g.seed)
	return rand.NewChaCha8(sha256.Sum256(append(s[:], label...)))
}

// messages returns n messages of size bytes each.
func (g *gen) messages(label string, n, size int) [][]byte {
	src := g.stream(label)
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		_, _ = src.Read(out[i]) // ChaCha8.Read never fails
		g.digest.Write(out[i])
	}
	return out
}

// poisson returns the due offsets of a Poisson arrival process of the
// given rate over dur, in order, conditioned on its expected count
// (rate × dur independent uniform arrival times): the schedule is as
// bursty as any Poisson sample, but every seed offers the same load.
func (g *gen) poisson(label string, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(g.stream(label))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	slices.Sort(out)
	for _, off := range out {
		_ = binary.Write(g.digest, binary.BigEndian, int64(off)) // a hash never fails a write
	}
	return out
}

// positions picks k distinct positions in [lo, hi), in draw order.
func (g *gen) positions(label string, lo, hi, k int) []int {
	rng := rand.New(g.stream(label))
	out := rng.Perm(hi - lo)[:k]
	for i := range out {
		out[i] += lo
		_ = binary.Write(g.digest, binary.BigEndian, int64(out[i])) // a hash never fails a write
	}
	return out
}

func (g *gen) sum() string { return hex.EncodeToString(g.digest.Sum(nil)) }
