package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atom/internal/taxonomy"
)

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMember([]byte("member-config")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDeployment([]byte("deployment-state")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEpoch(3, []byte("hash")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSealed(7, []byte("sealed-7")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSealed(8, []byte("sealed-8")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordOutcome(7, [][]byte{[]byte("msg-a"), []byte("msg-b")}, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.State()
	if string(st.Member) != "member-config" {
		t.Errorf("member = %q", st.Member)
	}
	if string(st.Deployment) != "deployment-state" {
		t.Errorf("deployment = %q", st.Deployment)
	}
	if st.Epoch != 3 || string(st.ConfigHash) != "hash" {
		t.Errorf("epoch = %d hash = %q", st.Epoch, st.ConfigHash)
	}
	// Round 7 published, so only round 8 is still pending.
	if len(st.Sealed) != 1 || string(st.Sealed[8]) != "sealed-8" {
		t.Errorf("pending sealed = %v", st.Sealed)
	}
	o, ok := st.Outcomes[7]
	if !ok || len(o.Messages) != 2 || string(o.Messages[0]) != "msg-a" || o.Failure != "" {
		t.Errorf("outcome 7 = %+v", o)
	}
	if st.MaxRound() != 8 {
		t.Errorf("MaxRound = %d, want 8", st.MaxRound())
	}
	if m := s2.Metrics(); m.ReplayRecords != 6 || m.ReplayDuration <= 0 {
		t.Errorf("replay metrics = %+v", m)
	}
}

// TestTornFinalRecord simulates a power cut mid-append: the journal's
// final frame is cut short, and replay must truncate it and land on the
// last consistent state — the acceptance criterion for torn-write
// detection.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSealed(1, []byte("sealed-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSealed(2, []byte("sealed-2")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, "journal.wal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final frame: drop its last 3 bytes.
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("replay after torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.State()
	if len(st.Sealed) != 1 || string(st.Sealed[1]) != "sealed-1" {
		t.Errorf("state after torn tail = %v, want only round 1", st.Sealed)
	}
	// The torn bytes must be gone: appending and replaying again yields
	// a journal with no gap.
	if err := s2.RecordSealed(3, []byte("sealed-3")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.State(); len(st.Sealed) != 2 || string(st.Sealed[3]) != "sealed-3" {
		t.Errorf("state after re-append = %v", st.Sealed)
	}
}

// A frame whose CRC passes but whose payload is garbage is corruption,
// not a torn write.
func TestCorruptRecordDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Hand-craft a validly framed record with an unknown class.
	frame := frameRecord(encodeRecord(99, 0, []byte("x")))
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, taxonomy.ErrStateCorrupt) {
		t.Errorf("Open = %v, want taxonomy.ErrStateCorrupt", err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.snapEvery = 4 // force frequent compaction
	for r := uint64(1); r <= 10; r++ {
		if err := s.RecordSealed(r, []byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 {
			if err := s.RecordOutcome(r-1, [][]byte{{byte(r - 1)}}, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := s.Metrics(); m.Snapshots == 0 {
		t.Fatal("no snapshot taken")
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.State()
	// Odd rounds 1,3,5,7,9 published; evens 2,4,6,8,10 remain sealed.
	want := map[uint64]bool{2: true, 4: true, 6: true, 8: true, 10: true}
	if len(st.Sealed) != len(want) {
		t.Errorf("pending after compaction = %v", st.Sealed)
	}
	for r := range want {
		if _, ok := st.Sealed[r]; !ok {
			t.Errorf("round %d missing from pending set", r)
		}
	}
	if len(st.Outcomes) != 5 {
		t.Errorf("outcomes = %d, want 5", len(st.Outcomes))
	}
}

func TestFailedOutcomeRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordSealed(5, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordOutcome(5, nil, "atom: round aborted"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	o := s2.State().Outcomes[5]
	if o.Failure != "atom: round aborted" || len(o.Messages) != 0 {
		t.Errorf("failed outcome = %+v", o)
	}
}
