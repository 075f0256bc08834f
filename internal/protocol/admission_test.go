package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"atom/internal/ecc"
	"atom/internal/taxonomy"
)

// mixedNIZKWires builds a batch that exercises every admission outcome:
// valid submissions across all entry groups, a within-batch duplicate, a
// tampered proof, an unknown entry group, and undecodable bytes.
func mixedNIZKWires(t *testing.T, d *Deployment, c *Client) [][]byte {
	t.Helper()
	wires := make([][]byte, 0, 8)
	for u := 0; u < 5; u++ {
		gid := u % d.NumGroups()
		pk, err := d.GroupPK(gid)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Submit([]byte(fmt.Sprintf("batch user %d", u)), pk, gid, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, sub.Encode())
	}
	// Duplicate of the first submission.
	wires = append(wires, append([]byte(nil), wires[0]...))
	// Tampered proof on a fresh submission.
	pk, _ := d.GroupPK(1)
	bad, err := c.Submit([]byte("tampered"), pk, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bad.Proof.Resp[0] = bad.Proof.Resp[0].Add(ecc.NewScalar(1))
	wires = append(wires, bad.Encode())
	// Unknown entry group.
	ghost, err := c.Submit([]byte("ghost group"), pk, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ghost.GID = 99
	wires = append(wires, ghost.Encode())
	// Undecodable bytes.
	wires = append(wires, []byte{0xff, 0x01, 0x02})
	return wires
}

// compareBatchToSerial admits the same wires serially into one round and
// batched into another, and requires identical per-submission outcomes —
// the batched plane must be indistinguishable from the serial one.
func compareBatchToSerial(t *testing.T, d *Deployment, wires [][]byte) []error {
	t.Helper()
	rsSerial, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	serialErrs := make([]error, len(wires))
	for i, w := range wires {
		serialErrs[i] = rsSerial.SubmitEncoded(i, w)
	}
	rsBatch, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	users := make([]int, len(wires))
	for i := range users {
		users[i] = i
	}
	batchErrs, stats := rsBatch.SubmitEncodedBatch(users, wires)
	for i := range wires {
		se, be := serialErrs[i], batchErrs[i]
		if (se == nil) != (be == nil) {
			t.Fatalf("submission %d: serial err %v, batch err %v", i, se, be)
		}
		if se != nil && se.Error() != be.Error() {
			t.Errorf("submission %d attribution mismatch:\n serial %q\n batch  %q", i, se, be)
		}
	}
	if rsSerial.Pending() != rsBatch.Pending() {
		t.Errorf("pending: serial %d, batch %d", rsSerial.Pending(), rsBatch.Pending())
	}
	if rsSerial.Rejected() != rsBatch.Rejected() {
		t.Errorf("rejected: serial %d, batch %d", rsSerial.Rejected(), rsBatch.Rejected())
	}
	if stats.Size != len(wires) || stats.Admitted != rsBatch.Pending() || stats.Rejected != rsBatch.Rejected() {
		t.Errorf("stats %+v inconsistent with round (pending %d, rejected %d)", stats, rsBatch.Pending(), rsBatch.Rejected())
	}
	if stats.Admitted > 0 && stats.VerifyTime <= 0 {
		t.Errorf("stats.VerifyTime = %v, want > 0", stats.VerifyTime)
	}
	return batchErrs
}

func TestBatchAdmissionMatchesSerialNIZK(t *testing.T) {
	d, err := NewDeployment(testConfig(VariantNIZK))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(VariantNIZK)
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := compareBatchToSerial(t, d, mixedNIZKWires(t, d, c))
	// Spot-check the typed attribution the daemon relies on.
	if !errors.Is(errs[5], taxonomy.ErrDuplicateSubmission) {
		t.Errorf("duplicate: got %v", errs[5])
	}
	if !errors.Is(errs[6], taxonomy.ErrBadSubmission) || errors.Is(errs[6], taxonomy.ErrDuplicateSubmission) {
		t.Errorf("tampered proof: got %v", errs[6])
	}
	if !errors.Is(errs[7], taxonomy.ErrNoSuchGroup) {
		t.Errorf("ghost group: got %v", errs[7])
	}
	if !errors.Is(errs[8], taxonomy.ErrBadSubmission) {
		t.Errorf("garbage: got %v", errs[8])
	}
	for i := 0; i < 5; i++ {
		if errs[i] != nil {
			t.Errorf("valid submission %d rejected: %v", i, errs[i])
		}
	}
}

func TestBatchAdmissionMatchesSerialTrap(t *testing.T) {
	cfg := testConfig(VariantTrap)
	cfg.NumTrustees = 3
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Admission never opens the inner ciphertext, so any round's trustee
	// key serves for both rounds compareBatchToSerial opens.
	tpk, err := openRound(t, d).TrusteePK()
	if err != nil {
		t.Fatal(err)
	}
	wires := make([][]byte, 0, 8)
	var first *TrapSubmission
	for u := 0; u < 4; u++ {
		gid := u % d.NumGroups()
		pk, err := d.GroupPK(gid)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.SubmitTrap([]byte(fmt.Sprintf("trap user %d", u)), pk, tpk, gid, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if u == 0 {
			first = sub
		}
		wires = append(wires, sub.Encode())
	}
	// Tampered second proof — serial attribution says "ciphertext 1".
	pk, _ := d.GroupPK(2)
	bad, err := c.SubmitTrap([]byte("tampered trap"), pk, tpk, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bad.Proofs[1].Resp[0] = bad.Proofs[1].Resp[0].Add(ecc.NewScalar(1))
	wires = append(wires, bad.Encode())
	// Fresh ciphertexts reusing the first submission's commitment.
	pk0, _ := d.GroupPK(0)
	reuse, err := c.SubmitTrap([]byte("commitment thief"), pk0, tpk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	reuse.Commitment = append([]byte(nil), first.Commitment...)
	wires = append(wires, reuse.Encode())
	// Byte-identical replay.
	wires = append(wires, append([]byte(nil), wires[1]...))

	errs := compareBatchToSerial(t, d, wires)
	if !errors.Is(errs[4], taxonomy.ErrBadSubmission) || errors.Is(errs[4], taxonomy.ErrDuplicateSubmission) {
		t.Errorf("tampered trap proof: got %v", errs[4])
	}
	if !errors.Is(errs[5], taxonomy.ErrDuplicateSubmission) {
		t.Errorf("commitment reuse: got %v", errs[5])
	}
	if !errors.Is(errs[6], taxonomy.ErrDuplicateSubmission) {
		t.Errorf("replayed trap: got %v", errs[6])
	}
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Errorf("valid trap submission %d rejected: %v", i, errs[i])
		}
	}
}

// TestBatchAdmissionPlaintextParity runs full rounds fed by the batched
// plane at 1 and 4 mixing workers; the canonical plaintext sets must be
// byte-identical to each other and to the submitted messages.
func TestBatchAdmissionPlaintextParity(t *testing.T) {
	var prev [][]byte
	for _, workers := range []int{1, 4} {
		cfg := testConfig(VariantNIZK)
		cfg.Mix.Workers = workers
		cfg.Seed = []byte("parity-seed")
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		users := make([]int, 16)
		wires := make([][]byte, 16)
		want := make(map[string]bool, 16)
		for u := range wires {
			gid := u % d.NumGroups()
			pk, err := d.GroupPK(gid)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte(fmt.Sprintf("parity message %02d", u))
			want[string(msg)] = true
			sub, err := c.Submit(msg, pk, gid, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			users[u], wires[u] = u, sub.Encode()
		}
		rs := openRound(t, d)
		errs, _ := rs.SubmitEncodedBatch(users, wires)
		for i, e := range errs {
			if e != nil {
				t.Fatalf("workers=%d: submission %d rejected: %v", workers, i, e)
			}
		}
		res, err := mixRound(rs)
		if err != nil {
			t.Fatal(err)
		}
		checkMessages(t, res, want)
		if prev != nil {
			if len(prev) != len(res.Messages) {
				t.Fatalf("workers=1 produced %d messages, workers=%d produced %d", len(prev), workers, len(res.Messages))
			}
			for i := range prev {
				if string(prev[i]) != string(res.Messages[i]) {
					t.Fatalf("workers=%d message %d differs: %q vs %q", workers, i, prev[i], res.Messages[i])
				}
			}
		}
		prev = res.Messages
	}
}

func TestBatchAdmissionSealedRound(t *testing.T) {
	d, err := NewDeployment(testConfig(VariantNIZK))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(VariantNIZK)
	c, err := NewClient(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SealRound(rs); err != nil {
		t.Fatal(err)
	}
	pk, _ := d.GroupPK(0)
	sub, err := c.Submit([]byte("too late"), pk, 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	errs, stats := rs.SubmitEncodedBatch([]int{0, 1}, [][]byte{sub.Encode(), sub.Encode()})
	for i, e := range errs {
		if !errors.Is(e, taxonomy.ErrRoundClosed) {
			t.Errorf("sealed round submission %d: got %v", i, e)
		}
	}
	if stats.Rejected != 2 || stats.Admitted != 0 {
		t.Errorf("sealed stats: %+v", stats)
	}
}

func TestBatchAdmissionEmpty(t *testing.T) {
	d, err := NewDeployment(testConfig(VariantNIZK))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.OpenRound()
	if err != nil {
		t.Fatal(err)
	}
	errs, stats := rs.SubmitEncodedBatch(nil, nil)
	if len(errs) != 0 || stats.Size != 0 {
		t.Fatalf("empty batch: errs %v stats %+v", errs, stats)
	}
}
