// Package store is the durable fleet state behind atomd: an
// append-only, CRC-framed, fsync'd write-ahead journal plus periodic
// snapshots, replayed on open. It persists six record classes — the
// member's identity (its marshaled MemberConfig, DVSS share and Feldman
// commitments included), the deployment's group/epoch state, sealed
// batches admitted by the continuous service, published round outcomes,
// verifiable-beacon rounds, and the DKG trust transcript — so a
// killed-and-restarted atomd rejoins the cluster from disk instead of
// triggering emergency buddy recovery, a restarted coordinator
// re-dispatches every sealed-but-unmixed batch, and the randomness
// beacon resumes its chain instead of forking it.
//
// The journal format is deliberately dumb: each frame is a 4-byte
// little-endian payload length, a 4-byte CRC-32 (IEEE) of the payload,
// and the payload itself. A torn final frame — the classic
// power-cut-mid-write artifact — fails its length or CRC check and is
// truncated away on open; replay then stops at the last consistent
// state. A frame that passes its CRC but does not decode is not a torn
// write, it is corruption, and surfaces as ErrStateCorrupt.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atom/internal/taxonomy"
)

// Record classes. The class byte leads every journal payload; unknown
// classes fail replay with ErrStateCorrupt rather than being skipped — a
// store must never silently drop state it does not understand.
const (
	classMember     = 1 // marshaled MemberConfig (identity, share, commitments)
	classDeployment = 2 // marshaled deployment key material
	classEpoch      = 3 // epoch counter + group-config hash
	classSealed     = 4 // sealed-but-unmixed batch, keyed by round
	classOutcome    = 5 // published round outcome, keyed by round
	classBeacon     = 6 // verifiable-beacon round record, keyed by beacon round
	classDKG        = 7 // DKG trust transcript (chain info + committee keys)
)

// journalName and snapName are the store's two files inside the state
// directory.
const (
	journalName = "journal.wal"
	snapName    = "snapshot.atom"
)

// outcomesRetained bounds the outcome history a snapshot keeps —
// matching the service's own published-result window; older outcomes
// are compacted away.
const outcomesRetained = 128

// beaconRetained bounds the beacon-round history a snapshot keeps. It
// exceeds the beacon chain's own verification window (beacon
// DefaultWindow = 512) so a restarted node can always re-verify the
// links it replays.
const beaconRetained = 1024

// defaultSnapshotEvery is how many journal records accumulate before
// the store compacts them into a snapshot.
const defaultSnapshotEvery = 256

// Outcome is one published round as the store retains it.
type Outcome struct {
	Round    uint64
	Messages [][]byte
	// Failure is the round's error text ("" for a success). The typed
	// chain does not survive serialization; restarted observers get the
	// classification from the text.
	Failure string
}

// State is the replayed view of a state directory: the last write of
// each singleton class plus the keyed sealed/outcome maps.
type State struct {
	// Member is the latest persisted MemberConfig (nil when this store
	// never hosted a member).
	Member []byte
	// Deployment is the coordinator's marshaled key material (nil on
	// member-only stores).
	Deployment []byte
	// Epoch is the group/epoch counter at the last epoch record.
	Epoch uint64
	// ConfigHash is the canonical group-config hash (atom.Config.Hash)
	// recorded with the epoch (nil when none was recorded).
	ConfigHash []byte
	// Sealed maps round id → sealed-round codec bytes for every round
	// that sealed but never published — the batches a restarted
	// coordinator must re-dispatch.
	Sealed map[uint64][]byte
	// Outcomes maps round id → published outcome (bounded history).
	Outcomes map[uint64]Outcome
	// DKG is the latest persisted trust transcript: the beacon chain
	// info plus the committee's threshold keys, as the atom package
	// marshals them (nil when this store never ran a setup ceremony).
	DKG []byte
	// Beacon maps beacon round → marshaled beacon.Round record (bounded
	// history), the chain a restarted node resumes from.
	Beacon map[uint64][]byte
}

// MaxRound returns the highest round id the state has seen across
// sealed and published records — the floor for the next incarnation's
// round sequencer, so a restarted coordinator never reissues an id.
func (st *State) MaxRound() uint64 {
	var max uint64
	for r := range st.Sealed {
		if r > max {
			max = r
		}
	}
	for r := range st.Outcomes {
		if r > max {
			max = r
		}
	}
	return max
}

// MaxBeaconRound returns the highest beacon round the state retains —
// the head a restarted beacon node catches up to. Beacon rounds are a
// separate sequence from mix rounds and never feed MaxRound.
func (st *State) MaxBeaconRound() uint64 {
	var max uint64
	for r := range st.Beacon {
		if r > max {
			max = r
		}
	}
	return max
}

// Metrics is the store's counter snapshot for the /metrics endpoint.
type Metrics struct {
	// JournalBytes totals the frame bytes appended to the journal.
	JournalBytes uint64
	// Fsyncs counts the fsync calls the store issued.
	Fsyncs uint64
	// Records counts the journal records appended.
	Records uint64
	// Snapshots counts the compactions taken.
	Snapshots uint64
	// ReplayDuration is how long the last Open spent replaying.
	ReplayDuration time.Duration
	// ReplayRecords is how many records the last Open replayed
	// (snapshot state counts as one).
	ReplayRecords uint64
}

// Store is one state directory's handle. All methods are safe for
// concurrent use.
type Store struct {
	dir       string
	snapEvery int

	mu            sync.Mutex
	journal       *os.File
	st            State
	recsSinceSnap int
	closed        bool

	journalBytes  atomic.Uint64
	fsyncs        atomic.Uint64
	records       atomic.Uint64
	snapshots     atomic.Uint64
	replayNanos   atomic.Int64
	replayRecords atomic.Uint64
}

// Open opens (creating if needed) the state directory, loads the
// snapshot, replays the journal on top of it — truncating a torn final
// frame — and returns the store ready for appends. A journal or
// snapshot that is damaged beyond a torn tail fails with ErrStateCorrupt.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:       dir,
		snapEvery: defaultSnapshotEvery,
		st: State{
			Sealed:   make(map[uint64][]byte),
			Outcomes: make(map[uint64]Outcome),
			Beacon:   make(map[uint64][]byte),
		},
	}
	start := time.Now()
	replayed, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := s.replayJournal()
	if err != nil {
		return nil, err
	}
	replayed += n
	s.replayNanos.Store(int64(time.Since(start)))
	s.replayRecords.Store(uint64(replayed))

	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.journal = f
	return s, nil
}

// Close releases the journal handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

// State returns a copy of the replayed-plus-appended state. The byte
// slices are shared with the store's internal view; treat them as
// read-only.
func (s *Store) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := State{
		Member:     s.st.Member,
		Deployment: s.st.Deployment,
		Epoch:      s.st.Epoch,
		ConfigHash: s.st.ConfigHash,
		Sealed:     make(map[uint64][]byte, len(s.st.Sealed)),
		Outcomes:   make(map[uint64]Outcome, len(s.st.Outcomes)),
		DKG:        s.st.DKG,
		Beacon:     make(map[uint64][]byte, len(s.st.Beacon)),
	}
	for r, b := range s.st.Sealed {
		out.Sealed[r] = b
	}
	for r, o := range s.st.Outcomes {
		out.Outcomes[r] = o
	}
	for r, b := range s.st.Beacon {
		out.Beacon[r] = b
	}
	return out
}

// Metrics snapshots the store's counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		JournalBytes:   s.journalBytes.Load(),
		Fsyncs:         s.fsyncs.Load(),
		Records:        s.records.Load(),
		Snapshots:      s.snapshots.Load(),
		ReplayDuration: time.Duration(s.replayNanos.Load()),
		ReplayRecords:  s.replayRecords.Load(),
	}
}

// PutMember journals the member's marshaled config — called every time
// the member adopts one, before the ack leaves, so a restart always
// finds the wiring the coordinator believes the member holds.
func (s *Store) PutMember(cfg []byte) error {
	return s.append(classMember, 0, cfg)
}

// PutDeployment journals the coordinator's marshaled key material —
// every group's DVSS shares, Feldman commitments and escrows. Written
// at fleet formation and whenever a share installs or a member fails.
func (s *Store) PutDeployment(state []byte) error {
	return s.append(classDeployment, 0, state)
}

// PutEpoch journals an epoch bump together with the group-config hash
// in force.
func (s *Store) PutEpoch(epoch uint64, configHash []byte) error {
	return s.append(classEpoch, epoch, configHash)
}

// PutDKG journals the trust transcript — the verifiable beacon's chain
// info and the committee's threshold keys, as one opaque blob the atom
// package marshals. Written once after the setup ceremony and again
// after every resharing epoch.
func (s *Store) PutDKG(transcript []byte) error {
	return s.append(classDKG, 0, transcript)
}

// RecordBeacon journals one produced (or verified) beacon round so the
// chain resumes, rather than forks, across a restart.
func (s *Store) RecordBeacon(round uint64, record []byte) error {
	return s.append(classBeacon, round, record)
}

// RecordSealed journals a sealed-but-unmixed batch. Implements the
// service's RoundJournal.
func (s *Store) RecordSealed(round uint64, sealed []byte) error {
	return s.append(classSealed, round, sealed)
}

// RecordOutcome journals a published round, retiring its sealed record.
// Implements the service's RoundJournal.
func (s *Store) RecordOutcome(round uint64, messages [][]byte, failure string) error {
	return s.append(classOutcome, round, encodeOutcome(messages, failure))
}

// PendingSealed returns the sealed-but-unpublished batches — what a
// restarted service re-dispatches. Implements the service's
// RoundJournal.
func (s *Store) PendingSealed() map[uint64][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64][]byte, len(s.st.Sealed))
	for r, b := range s.st.Sealed {
		out[r] = b
	}
	return out
}

// append journals one record: frame, write, fsync, apply, and — every
// snapEvery records — compact.
func (s *Store) append(class byte, key uint64, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	payload := encodeRecord(class, key, value)
	frame := frameRecord(payload)
	if _, err := s.journal.Write(frame); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("store: journal fsync: %w", err)
	}
	s.journalBytes.Add(uint64(len(frame)))
	s.fsyncs.Add(1)
	s.records.Add(1)
	if err := s.apply(class, key, value); err != nil {
		return err
	}
	s.recsSinceSnap++
	if s.recsSinceSnap >= s.snapEvery {
		return s.snapshotLocked()
	}
	return nil
}

// Snapshot compacts the journal: the current state is written to a
// fresh snapshot file (fsync'd, then atomically renamed over the old
// one) and the journal truncates to empty.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	s.compactOutcomesLocked()
	s.compactBeaconLocked()
	payload := encodeState(&s.st)
	frame := frameRecord(payload)
	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	s.fsyncs.Add(1)
	// The journal's records are now folded into the snapshot; truncate
	// it so replay starts from the snapshot alone.
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: journal truncate: %w", err)
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: journal seek: %w", err)
	}
	s.recsSinceSnap = 0
	s.snapshots.Add(1)
	return nil
}

// compactOutcomesLocked drops outcomes beyond the retained window,
// oldest first. Sealed records are never compacted away — an unmixed
// batch must survive any number of snapshots.
func (s *Store) compactOutcomesLocked() {
	if len(s.st.Outcomes) <= outcomesRetained {
		return
	}
	rounds := make([]uint64, 0, len(s.st.Outcomes))
	for r := range s.st.Outcomes {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	for _, r := range rounds[:len(rounds)-outcomesRetained] {
		delete(s.st.Outcomes, r)
	}
}

// compactBeaconLocked drops beacon rounds beyond the retained window,
// oldest first — mirroring the chain's own eviction.
func (s *Store) compactBeaconLocked() {
	if len(s.st.Beacon) <= beaconRetained {
		return
	}
	rounds := make([]uint64, 0, len(s.st.Beacon))
	for r := range s.st.Beacon {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	for _, r := range rounds[:len(rounds)-beaconRetained] {
		delete(s.st.Beacon, r)
	}
}

// apply folds one record into the state. Replay and append share it, so
// a record's semantics cannot drift between the live and recovery
// paths.
func (s *Store) apply(class byte, key uint64, value []byte) error {
	switch class {
	case classMember:
		s.st.Member = value
	case classDeployment:
		s.st.Deployment = value
	case classEpoch:
		s.st.Epoch = key
		if len(value) > 0 {
			s.st.ConfigHash = value
		}
	case classSealed:
		s.st.Sealed[key] = value
	case classOutcome:
		o, err := decodeOutcome(key, value)
		if err != nil {
			return fmt.Errorf("%w: outcome record round %d: %v", taxonomy.ErrStateCorrupt, key, err)
		}
		delete(s.st.Sealed, key)
		s.st.Outcomes[key] = o
	case classBeacon:
		s.st.Beacon[key] = value
	case classDKG:
		s.st.DKG = value
	default:
		return fmt.Errorf("%w: unknown record class %d", taxonomy.ErrStateCorrupt, class)
	}
	return nil
}

// loadSnapshot reads the snapshot file, if present, into the state.
// A snapshot is one frame; any mismatch is ErrStateCorrupt — snapshots are
// written to a temp file and renamed, so a torn snapshot cannot occur
// under the posix rename contract.
func (s *Store) loadSnapshot() (int, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	payload, n, ok := readFrame(b)
	if !ok || n != len(b) {
		return 0, fmt.Errorf("%w: snapshot frame damaged", taxonomy.ErrStateCorrupt)
	}
	if err := decodeState(payload, &s.st); err != nil {
		return 0, err
	}
	return 1, nil
}

// replayJournal applies every intact journal frame to the state and
// truncates the file at the first torn frame (bad length or CRC at the
// tail). Returns the number of records applied.
func (s *Store) replayJournal() (int, error) {
	path := filepath.Join(s.dir, journalName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	applied, off := 0, 0
	for off < len(b) {
		payload, n, ok := readFrame(b[off:])
		if !ok {
			// Torn tail: truncate the journal at the last good frame
			// and stop. Anything after a bad frame is unreachable —
			// frames are only ever appended, so a tear can only be
			// terminal.
			if err := os.Truncate(path, int64(off)); err != nil {
				return 0, fmt.Errorf("store: truncating torn journal: %w", err)
			}
			break
		}
		class, key, value, derr := decodeRecord(payload)
		if derr != nil {
			return 0, fmt.Errorf("%w: journal record at offset %d: %v", taxonomy.ErrStateCorrupt, off, derr)
		}
		if aerr := s.apply(class, key, value); aerr != nil {
			return 0, aerr
		}
		applied++
		off += n
	}
	return applied, nil
}

// --- framing ---

// frameRecord wraps a payload in the length+CRC frame.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// readFrame parses one frame from the front of b, returning the payload
// and the frame's total size. ok is false for a torn frame: a short
// header, a length running past the buffer, or a CRC mismatch.
func readFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n < 0 || 8+n > len(b) {
		return nil, 0, false
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, 8 + n, true
}

// --- record payload codec (class byte, uvarint key, value bytes) ---

func encodeRecord(class byte, key uint64, value []byte) []byte {
	out := append([]byte{class}, binary.AppendUvarint(nil, key)...)
	return append(out, value...)
}

func decodeRecord(payload []byte) (class byte, key uint64, value []byte, err error) {
	if len(payload) < 1 {
		return 0, 0, nil, fmt.Errorf("empty record")
	}
	class = payload[0]
	key, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("bad record key")
	}
	return class, key, payload[1+n:], nil
}

// --- outcome codec (ok-agnostic: failure string + message list) ---

func encodeOutcome(messages [][]byte, failure string) []byte {
	out := binary.AppendUvarint(nil, uint64(len(failure)))
	out = append(out, failure...)
	out = binary.AppendUvarint(out, uint64(len(messages)))
	for _, m := range messages {
		out = binary.AppendUvarint(out, uint64(len(m)))
		out = append(out, m...)
	}
	return out
}

func decodeOutcome(round uint64, b []byte) (Outcome, error) {
	o := Outcome{Round: round}
	fail, b, err := takeBytes(b)
	if err != nil {
		return o, err
	}
	o.Failure = string(fail)
	n, cnt := binary.Uvarint(b)
	if cnt <= 0 || n > uint64(len(b)) {
		return o, fmt.Errorf("bad message count")
	}
	b = b[cnt:]
	o.Messages = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		var m []byte
		if m, b, err = takeBytes(b); err != nil {
			return o, err
		}
		o.Messages = append(o.Messages, m)
	}
	if len(b) != 0 {
		return o, fmt.Errorf("%d trailing bytes", len(b))
	}
	return o, nil
}

// takeBytes pops one uvarint-length-prefixed byte string off b.
func takeBytes(b []byte) (val, rest []byte, err error) {
	n, cnt := binary.Uvarint(b)
	if cnt <= 0 || n > uint64(len(b)-cnt) {
		return nil, nil, fmt.Errorf("bad length prefix")
	}
	return b[cnt : cnt+int(n)], b[cnt+int(n):], nil
}

// --- state codec (the snapshot payload) ---

// stateVersion is what new snapshots are written as. Version 2 appends
// the DKG transcript and the beacon-round map to the version-1 layout;
// decodeState still accepts version-1 snapshots (written before the
// trust classes existed), which simply restore with no beacon state.
const stateVersion = 2

func encodeState(st *State) []byte {
	out := []byte{stateVersion}
	app := func(b []byte) {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	app(st.Member)
	app(st.Deployment)
	out = binary.AppendUvarint(out, st.Epoch)
	app(st.ConfigHash)
	rounds := make([]uint64, 0, len(st.Sealed))
	for r := range st.Sealed {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out = binary.AppendUvarint(out, uint64(len(rounds)))
	for _, r := range rounds {
		out = binary.AppendUvarint(out, r)
		app(st.Sealed[r])
	}
	rounds = rounds[:0]
	for r := range st.Outcomes {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out = binary.AppendUvarint(out, uint64(len(rounds)))
	for _, r := range rounds {
		out = binary.AppendUvarint(out, r)
		app(encodeOutcome(st.Outcomes[r].Messages, st.Outcomes[r].Failure))
	}
	// Version-2 suffix: trust transcript + beacon rounds.
	app(st.DKG)
	rounds = rounds[:0]
	for r := range st.Beacon {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out = binary.AppendUvarint(out, uint64(len(rounds)))
	for _, r := range rounds {
		out = binary.AppendUvarint(out, r)
		app(st.Beacon[r])
	}
	return out
}

func decodeState(b []byte, st *State) error {
	fail := func(what string) error {
		return fmt.Errorf("%w: snapshot %s", taxonomy.ErrStateCorrupt, what)
	}
	if len(b) < 1 || b[0] < 1 || b[0] > stateVersion {
		return fail("version")
	}
	version := b[0]
	b = b[1:]
	var err error
	if st.Member, b, err = takeBytes(b); err != nil {
		return fail("member record")
	}
	if len(st.Member) == 0 {
		st.Member = nil
	}
	if st.Deployment, b, err = takeBytes(b); err != nil {
		return fail("deployment record")
	}
	if len(st.Deployment) == 0 {
		st.Deployment = nil
	}
	epoch, cnt := binary.Uvarint(b)
	if cnt <= 0 {
		return fail("epoch")
	}
	st.Epoch = epoch
	b = b[cnt:]
	if st.ConfigHash, b, err = takeBytes(b); err != nil {
		return fail("config hash")
	}
	if len(st.ConfigHash) == 0 {
		st.ConfigHash = nil
	}
	n, cnt := binary.Uvarint(b)
	if cnt <= 0 || n > uint64(len(b)) {
		return fail("sealed count")
	}
	b = b[cnt:]
	for i := uint64(0); i < n; i++ {
		r, cnt := binary.Uvarint(b)
		if cnt <= 0 {
			return fail("sealed key")
		}
		b = b[cnt:]
		var v []byte
		if v, b, err = takeBytes(b); err != nil {
			return fail("sealed value")
		}
		st.Sealed[r] = v
	}
	n, cnt = binary.Uvarint(b)
	if cnt <= 0 || n > uint64(len(b)) {
		return fail("outcome count")
	}
	b = b[cnt:]
	for i := uint64(0); i < n; i++ {
		r, cnt := binary.Uvarint(b)
		if cnt <= 0 {
			return fail("outcome key")
		}
		b = b[cnt:]
		var v []byte
		if v, b, err = takeBytes(b); err != nil {
			return fail("outcome value")
		}
		o, derr := decodeOutcome(r, v)
		if derr != nil {
			return fail("outcome record")
		}
		st.Outcomes[r] = o
	}
	if version >= 2 {
		if st.DKG, b, err = takeBytes(b); err != nil {
			return fail("dkg transcript")
		}
		if len(st.DKG) == 0 {
			st.DKG = nil
		}
		n, cnt = binary.Uvarint(b)
		if cnt <= 0 || n > uint64(len(b)) {
			return fail("beacon count")
		}
		b = b[cnt:]
		for i := uint64(0); i < n; i++ {
			r, cnt := binary.Uvarint(b)
			if cnt <= 0 {
				return fail("beacon key")
			}
			b = b[cnt:]
			var v []byte
			if v, b, err = takeBytes(b); err != nil {
				return fail("beacon value")
			}
			st.Beacon[r] = v
		}
	}
	if len(b) != 0 {
		return fail("trailing bytes")
	}
	return nil
}
