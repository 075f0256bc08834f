// Package parallel is the shared worker-pool engine behind Atom's
// mixing path. The paper's Figure 7 shows a mixing iteration scaling
// near-linearly with cores; this package supplies the one execution
// primitive every crypto layer (elgamal batch operations, nizk proof
// generation/verification, the protocol.Seat round engine) fans its
// per-message work over, instead of each layer growing a bespoke
// goroutine scheme.
//
// Semantics:
//
//   - Bounded: a Pool never runs more than its configured worker count
//     of tasks concurrently; excess indices queue implicitly.
//   - Context-aware: a canceled context stops the dispatch of new
//     indices and surfaces ctx.Err().
//   - First-error + abort: once any task fails, no index beyond the
//     failing one is started, and the error of the LOWEST failing
//     index is returned — so a batch that contains a bad proof yields
//     the same error at workers=8 as at workers=1, and a pooled
//     verification can never swallow a rejection.
//
// A nil *Pool is valid and runs everything serially on the calling
// goroutine, which lets the crypto layers expose "…Par" variants whose
// nil-pool form is the exact serial code path.
//
// Sizing is owned by the layers above: protocol.MixConfig (surfaced as
// atom.Config.MixWorkers, atomd/atomsim -workers, and
// distributed.Options.Workers) resolves to a per-group pool size, and
// every seat — in process or behind a distributed member actor — builds
// one pool per step so busy time — Pool.Busy, reported through
// StepTrace/IterationStats — stays attributable.
package parallel
