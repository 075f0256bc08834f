package protocol

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// FuzzDecodeSubmission: the two decoders every remote submission crosses
// never panic on peer bytes, and what they accept has one encoding —
// Encode of the decoded value decodes again and re-encodes to itself.
func FuzzDecodeSubmission(f *testing.F) {
	for _, variant := range []Variant{VariantNIZK, VariantTrap} {
		cfg := testConfig(variant)
		d, err := NewDeployment(cfg)
		if err != nil {
			f.Fatal(err)
		}
		c, err := NewClient(&cfg)
		if err != nil {
			f.Fatal(err)
		}
		pk, err := d.GroupPK(1)
		if err != nil {
			f.Fatal(err)
		}
		var wire []byte
		if variant == VariantNIZK {
			sub, err := c.Submit([]byte("fuzz seed"), pk, 1, rand.Reader)
			if err != nil {
				f.Fatal(err)
			}
			wire = sub.Encode()
		} else {
			rs, err := d.OpenRound()
			if err != nil {
				f.Fatal(err)
			}
			tpk, err := rs.TrusteePK()
			if err != nil {
				f.Fatal(err)
			}
			sub, err := c.SubmitTrap([]byte("fuzz seed"), pk, tpk, 1, rand.Reader)
			if err != nil {
				f.Fatal(err)
			}
			wire = sub.Encode()
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
		f.Add(append(wire[:len(wire):len(wire)], 0))
	}
	f.Add([]byte{})
	f.Add([]byte{wireKindSubmission})
	f.Add([]byte{wireKindTrapSubmission, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})

	// decode parses data with the decoder its kind byte selects and
	// returns the accepted value's encoding.
	decode := func(data []byte) ([]byte, bool) {
		if len(data) > 0 && data[0] == wireKindTrapSubmission {
			sub, err := DecodeTrapSubmission(data)
			if err != nil {
				return nil, false
			}
			return sub.Encode(), true
		}
		sub, err := DecodeSubmission(data)
		if err != nil {
			return nil, false
		}
		return sub.Encode(), true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, ok := decode(data)
		if !ok {
			return
		}
		again, ok := decode(enc)
		if !ok {
			t.Fatalf("Encode of an accepted submission does not decode")
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("Encode is not a fixed point: %d bytes re-encode to %d", len(enc), len(again))
		}
	})
}
