package distributed

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"atom/internal/ecc"
	"atom/internal/elgamal"
	"atom/internal/protocol"
	"atom/internal/transport"
)

// wireTamper is a byzantine member's network card: an endpoint that
// rewrites the payload of one chain-message type on its way out, below
// everything the honest actor code above it does.
type wireTamper struct {
	transport.Endpoint
	mu      sync.Mutex
	typ     string                      // message type to corrupt ("" = behave)
	corrupt func(payload []byte) []byte // returns the corrupted copy
}

func (w *wireTamper) arm(typ string, corrupt func([]byte) []byte) {
	w.mu.Lock()
	w.typ, w.corrupt = typ, corrupt
	w.mu.Unlock()
}

func (w *wireTamper) SendCtx(ctx context.Context, to string, msg *transport.Message) error {
	w.mu.Lock()
	typ, corrupt := w.typ, w.corrupt
	w.mu.Unlock()
	if typ != "" && msg.Type == typ {
		evil := *msg
		evil.Payload = corrupt(msg.Payload)
		msg = &evil
	}
	return w.Endpoint.SendCtx(ctx, to, msg)
}

func (w *wireTamper) Send(to string, msg *transport.Message) error {
	return w.SendCtx(context.Background(), to, msg)
}

// firstPoint returns one point a chain message of the given type
// carries — preferring a Y slot, which is what a re-encryption peels with
// the member's secret.
func firstPoint(t *testing.T, typ string, payload []byte) *ecc.Point {
	var vecs []elgamal.Vector
	switch typ {
	case msgBatch:
		_, _, _, v, err := decodeBatchMsg(payload)
		if err != nil {
			t.Errorf("honest %s payload does not decode: %v", typ, err)
		}
		vecs = v
	case msgShuffle, msgDivide:
		_, _, _, out, _, err := decodeShuffleMsg(payload)
		if err != nil {
			t.Errorf("honest %s payload does not decode: %v", typ, err)
		}
		vecs = out
	case msgReEnc:
		_, _, _, batches, err := decodeReEncMsg(payload)
		if err != nil {
			t.Errorf("honest %s payload does not decode: %v", typ, err)
		}
		for _, rb := range batches {
			vecs = append(vecs, rb.Out...)
		}
	}
	for _, v := range vecs {
		for _, ct := range v {
			if ct.Y != nil {
				return ct.Y
			}
			return ct.C
		}
	}
	return nil
}

// corrupter builds a payload rewrite that damages one point of the
// message in place on the wire: off the curve (y's low bit flipped), or
// out of range (x = 2^256 − 1 ≥ p).
func corrupter(t *testing.T, typ, how string) func([]byte) []byte {
	return func(payload []byte) []byte {
		p := firstPoint(t, typ, payload)
		if p == nil {
			return payload // an empty layer: nothing to corrupt yet
		}
		enc := ecc.AppendUncompressedBatch(nil, []*ecc.Point{p})
		at := bytes.Index(payload, enc)
		if at < 0 {
			t.Errorf("%s payload does not contain its own point", typ)
			return payload
		}
		evil := append([]byte(nil), payload...)
		switch how {
		case "off-curve":
			evil[at+ecc.UncompressedLen-1] ^= 1
		case "x >= p":
			copy(evil[at+1:at+33], bytes.Repeat([]byte{0xff}, 32))
		}
		return evil
	}
}

// TestUndecodableChainPayloadBlamesSender: a member that puts an
// off-curve or out-of-range point on the wire — the cheapest byzantine
// move there is — is blamed exactly like one whose proof fails: the round
// aborts with ErrProofRejected naming that member and no other, whichever
// chain message carried the point, and the cluster mixes the next honest
// round.
func TestUndecodableChainPayloadBlamesSender(t *testing.T) {
	for _, variant := range []protocol.Variant{protocol.VariantTrap, protocol.VariantNIZK} {
		t.Run(variant.String(), func(t *testing.T) { undecodablePayloadCases(t, variant) })
	}
}

func undecodablePayloadCases(t *testing.T, variant protocol.Variant) {
	const gid = 1
	d, c := newDeployment(t, variant, 1)
	net := transport.NewMemNetwork(nil, 256)
	// Both chain positions of group 1 can be turned byzantine.
	evil := map[string]*wireTamper{"atom/g1/m0": {}, "atom/g1/m1": {}}
	cluster, err := NewCluster(d, Options{Attach: func(name string) (transport.Endpoint, error) {
		ep, err := net.Attach(name)
		if w := evil[name]; w != nil && err == nil {
			w.Endpoint = ep
			return w, nil
		}
		return ep, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cases := []struct {
		pos      int // chain position (DVSS index − 1) of the byzantine member
		typ, how string
	}{
		{1, msgReEnc, "off-curve"}, // the Y a successor would raise to its secret
		{1, msgReEnc, "x >= p"},
		{0, msgReEnc, "off-curve"},
		{0, msgShuffle, "off-curve"},
		{1, msgDivide, "x >= p"},
		{0, msgBatch, "off-curve"}, // crosses into the next layer's groups
	}
	for _, tc := range cases {
		name := tc.typ + " " + tc.how
		w := evil["atom/g1/m"+string(rune('0'+tc.pos))]
		w.arm(tc.typ, corrupter(t, tc.typ, tc.how))
		rs, err := d.OpenRound()
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, d, c, rs, 6)
		_, err = cluster.Run(context.Background(), rs, nil)
		w.arm("", nil)
		checkBlame(t, name, err, gid, tc.pos+1)

		rs, err = d.OpenRound()
		if err != nil {
			t.Fatal(err)
		}
		want := submitAll(t, d, c, rs, 6)
		res, err := cluster.Run(context.Background(), rs, nil)
		if err != nil {
			t.Fatalf("%s: honest round after the abort failed: %v", name, err)
		}
		if !reflect.DeepEqual(res.Messages, want) {
			t.Fatalf("%s: honest round after the abort recovered %q, want %q", name, res.Messages, want)
		}
	}
}
