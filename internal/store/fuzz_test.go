package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"atom/internal/taxonomy"
)

// stateFiles builds a real state directory — a snapshot, then journal
// records after it — and returns its journal and snapshot bytes.
func stateFiles(f *testing.F) (journal, snap []byte) {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	must(s.PutDeployment([]byte("deployment-state")))
	must(s.PutEpoch(2, []byte("config-hash")))
	must(s.RecordSealed(7, []byte("sealed-7")))
	must(s.RecordOutcome(7, [][]byte{[]byte("msg-a"), []byte("msg-b")}, ""))
	must(s.Snapshot())
	must(s.PutMember([]byte("member-config")))
	must(s.RecordSealed(8, []byte("sealed-8")))
	must(s.RecordOutcome(8, nil, "round aborted"))
	must(s.RecordBeacon(3, []byte("beacon-3")))
	must(s.Close())
	if journal, err = os.ReadFile(filepath.Join(dir, journalName)); err != nil {
		f.Fatal(err)
	}
	if snap, err = os.ReadFile(filepath.Join(dir, snapName)); err != nil {
		f.Fatal(err)
	}
	return journal, snap
}

// FuzzStoreOpen: Open reads whatever a crash, a bad disk or an attacker
// with the directory left behind. For arbitrary journal.wal and
// snapshot.atom bytes (an empty snapshot means none), Open never
// panics; it either succeeds or fails with ErrStateCorrupt; and a
// second Open of the same directory — after the first truncated any
// torn tail — yields an equal State.
func FuzzStoreOpen(f *testing.F) {
	journal, snap := stateFiles(f)
	f.Add(journal, snap)
	f.Add(journal, []byte{})
	f.Add(journal[:len(journal)-3], snap)       // torn final record
	f.Add(journal[:len(journal)/2], snap)       // torn mid-journal
	f.Add(append(journal, 0, 0, 0, 9, 1), snap) // torn length prefix
	f.Add([]byte{}, snap[:len(snap)-1])         // damaged snapshot
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, journal, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, taxonomy.ErrStateCorrupt) {
				t.Fatalf("Open failed untyped: %v", err)
			}
			return
		}
		first := s.State()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open of a directory the first accepted: %v", err)
		}
		defer s.Close()
		if second := s.State(); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopened state differs:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
