package distributed

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// memberProgress is the liveness tracker's per-member record: when the
// member was last heard from and where it said it was.
type memberProgress struct {
	Seen  time.Time
	Round uint64 // wire round (round<<8 | attempt)
	Layer int
	Phase string
}

// liveness tracks the last heartbeat (and self-reported progress) of
// every provisioned member. The pump goroutine writes it; the mixing
// loop and operators read it.
type liveness struct {
	mu sync.Mutex
	m  map[MemberID]memberProgress
}

func newLiveness() *liveness { return &liveness{m: make(map[MemberID]memberProgress)} }

func (l *liveness) reset(id MemberID, now time.Time) {
	l.mu.Lock()
	l.m[id] = memberProgress{Seen: now, Phase: "provisioned"}
	l.mu.Unlock()
}

func (l *liveness) observe(id MemberID, round uint64, layer int, phase string) {
	l.mu.Lock()
	l.m[id] = memberProgress{Seen: time.Now(), Round: round, Layer: layer, Phase: phase}
	l.mu.Unlock()
}

func (l *liveness) forget(id MemberID) {
	l.mu.Lock()
	delete(l.m, id)
	l.mu.Unlock()
}

// expired returns the members silent for longer than timeout.
func (l *liveness) expired(timeout time.Duration) []MemberID {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []MemberID
	for id, p := range l.m {
		if now.Sub(p.Seen) > timeout {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GID != out[j].GID {
			return out[i].GID < out[j].GID
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

func (l *liveness) snapshot() map[MemberID]memberProgress {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[MemberID]memberProgress, len(l.m))
	for id, p := range l.m {
		out[id] = p
	}
	return out
}

// MemberProgress is one member's last-known state, as carried by
// heartbeats — embedded in TimeoutError so a stalled round names where
// every member was instead of timing out anonymously.
type MemberProgress struct {
	ID    MemberID
	Round uint64
	Layer int
	Phase string
	// Age is how long ago the member was last heard from.
	Age time.Duration
}

// TimeoutError is a round that exhausted roundTimeout. Unlike a
// context cancellation (the caller gave up) or an abort (a member
// reported a failure), a timeout means the round silently stalled — the
// per-member progress identifies the straggler.
type TimeoutError struct {
	Round    uint64
	After    time.Duration
	Progress []MemberProgress
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("distributed: round %d timed out after %v; last known member progress:", e.Round, e.After)
	if len(e.Progress) == 0 {
		s += " (none)"
	}
	for _, p := range e.Progress {
		s += fmt.Sprintf(" g%d/m%d %s L%d (%s ago);", p.ID.GID, p.ID.Pos, p.Phase, p.Layer, p.Age.Round(time.Millisecond))
	}
	return s
}

// Progress reports every provisioned member's last-known liveness and
// mixing position — what a round timeout embeds, exposed for operator
// dashboards.
func (c *Cluster) Progress() []MemberProgress {
	return progressList(c.live.snapshot())
}

func progressList(snap map[MemberID]memberProgress) []MemberProgress {
	now := time.Now()
	out := make([]MemberProgress, 0, len(snap))
	for id, p := range snap {
		out = append(out, MemberProgress{
			ID: id, Round: p.Round >> 8, Layer: p.Layer, Phase: p.Phase, Age: now.Sub(p.Seen),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.GID != out[j].ID.GID {
			return out[i].ID.GID < out[j].ID.GID
		}
		return out[i].ID.Pos < out[j].ID.Pos
	})
	return out
}

// restartedSince reports which of the attempt's chain members announced
// a crash-restart after the attempt began — alive, heartbeating, state
// dir intact, but with the attempt's in-flight mixing state gone.
func (c *Cluster) restartedSince(began time.Time, v *attemptView) []MemberID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []MemberID
	for id, at := range c.restarts {
		if at.After(began) && v.inChain(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// awaitRejoin gives lost members whose hosts persist their config
// joinTimeout to come back before they are declared dead: a restarted
// member re-adopting its persisted identity resumes heartbeating at its
// old address, which refreshes its liveness record. It reports whether
// every lost member returned within the grace — at once false when any
// of them has no state to come back with.
func (c *Cluster) awaitRejoin(ctx context.Context, lost []MemberID) bool {
	if c.opts.Heartbeat <= 0 {
		return false // no beacon to observe a rejoin by
	}
	c.mu.Lock()
	for _, id := range lost {
		if !c.durable[id] {
			c.mu.Unlock()
			return false
		}
	}
	c.mu.Unlock()
	deadline := time.After(joinTimeout)
	tick := time.NewTicker(c.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			snap := c.live.snapshot()
			now := time.Now()
			back := 0
			for _, id := range lost {
				if p, ok := snap[id]; ok && now.Sub(p.Seen) <= c.opts.LivenessTimeout {
					back++
				}
			}
			if back == len(lost) {
				c.rejoins.Add(uint64(len(lost)))
				for _, id := range lost {
					c.logf("distributed: member g%d/m%d rejoined within the restart grace; fleet unchanged", id.GID, id.Pos)
				}
				return true
			}
		case <-deadline:
			return false
		case <-ctx.Done():
			return false
		}
	}
}
