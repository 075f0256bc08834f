package protocol

import (
	"atom/internal/cca2"
)

// trapFinale implements steps 3–6 of Figure 2: sort the exit outputs
// into traps and inner ciphertexts, route traps back to the groups named
// in their gid field and inner ciphertexts to hash-designated checking
// groups, verify trap commitments and duplicate-freedom, report to the
// trustees, and — if the trustees release the key — decrypt the inner
// ciphertexts into the round's plaintext messages.
func (d *Deployment) trapFinale(rs *RoundState, exitPayloads map[int][][]byte) ([][]byte, error) {
	G := len(d.groups)

	// Route: traps to their entry group, inner ciphertexts to the group
	// selected by universal hashing (§4.4).
	trapsByGroup := make([][][]byte, G)
	innerByGroup := make([][][]byte, G)
	malformed := make(map[int]bool) // exit groups that emitted garbage
	for gid, payloads := range exitPayloads {
		for _, p := range payloads {
			body, kind, err := DecodePlaintext(p)
			if err != nil {
				malformed[gid] = true
				continue
			}
			switch kind {
			case kindTrap:
				tg, err := trapGID(body)
				if err != nil || tg < 0 || tg >= G {
					malformed[gid] = true
					continue
				}
				trapsByGroup[tg] = append(trapsByGroup[tg], body)
			case kindMessage:
				innerByGroup[hashToGroup(body, G)] = append(innerByGroup[hashToGroup(body, G)], body)
			}
		}
	}

	// Each group checks its traps against its commitment set and its
	// inner ciphertexts for duplicates, then reports (§4.4).
	reports := make([]ExitReport, G)
	for gid := 0; gid < G; gid++ {
		commitments := rs.groups[gid].commitments
		report := ExitReport{GID: gid, TrapsOK: true, InnerOK: !malformed[gid]}

		// Trap check: every expected commitment matched exactly once, no
		// unexpected traps.
		expected := make(map[string]int, len(commitments))
		for c := range commitments {
			expected[c]++
		}
		for _, trap := range trapsByGroup[gid] {
			c := string(TrapCommitment(trap))
			if expected[c] == 0 {
				report.TrapsOK = false
				continue
			}
			expected[c]--
			report.NumTraps++
		}
		for _, remaining := range expected {
			if remaining > 0 {
				report.TrapsOK = false // a committed trap never arrived
			}
		}

		// Inner-ciphertext check: well-formed and duplicate-free.
		seen := make(map[string]bool, len(innerByGroup[gid]))
		for _, inner := range innerByGroup[gid] {
			key := string(inner)
			if seen[key] {
				report.InnerOK = false
				continue
			}
			seen[key] = true
			report.NumInner++
		}
		reports[gid] = report
	}

	shares, err := rs.trustees.Release(reports)
	if err != nil {
		return nil, err
	}

	// Step 6: decrypt the inner ciphertexts.
	var msgs [][]byte
	for gid := 0; gid < G; gid++ {
		for _, inner := range innerByGroup[gid] {
			padded, err := cca2.DecryptWithShares(shares, inner)
			if err != nil {
				// An undecryptable inner ciphertext past the count checks
				// means a malicious user self-encrypted garbage; her
				// message is dropped but the round stands (only her own
				// slot is lost).
				continue
			}
			msg, err := unpadMessage(padded)
			if err != nil {
				continue
			}
			msgs = append(msgs, msg)
		}
	}
	sortMessages(msgs)
	return msgs, nil
}

// TrapReports recomputes exit reports for the given payloads against
// this round's commitment sets, without releasing anything; exposed for
// tests and monitoring.
func (rs *RoundState) TrapReports(exitPayloads map[int][][]byte) []ExitReport {
	G := len(rs.d.groups)
	trapsByGroup := make([][][]byte, G)
	innerByGroup := make([][][]byte, G)
	for _, payloads := range exitPayloads {
		for _, p := range payloads {
			body, kind, err := DecodePlaintext(p)
			if err != nil {
				continue
			}
			switch kind {
			case kindTrap:
				if tg, err := trapGID(body); err == nil && tg >= 0 && tg < G {
					trapsByGroup[tg] = append(trapsByGroup[tg], body)
				}
			case kindMessage:
				innerByGroup[hashToGroup(body, G)] = append(innerByGroup[hashToGroup(body, G)], body)
			}
		}
	}
	reports := make([]ExitReport, G)
	for gid := 0; gid < G; gid++ {
		commitments := rs.groups[gid].commitments
		r := ExitReport{GID: gid, TrapsOK: true, InnerOK: true}
		expected := make(map[string]int, len(commitments))
		for c := range commitments {
			expected[c]++
		}
		for _, trap := range trapsByGroup[gid] {
			c := string(TrapCommitment(trap))
			if expected[c] == 0 {
				r.TrapsOK = false
				continue
			}
			expected[c]--
			r.NumTraps++
		}
		for _, rem := range expected {
			if rem > 0 {
				r.TrapsOK = false
			}
		}
		seen := make(map[string]bool)
		for _, inner := range innerByGroup[gid] {
			if seen[string(inner)] {
				r.InnerOK = false
				continue
			}
			seen[string(inner)] = true
			r.NumInner++
		}
		reports[gid] = r
	}
	return reports
}
