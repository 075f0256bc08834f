package atom

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "gc.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConfigGoldenHash pins the canonical hash of two group-config
// files: the one scripts/fleetsmoke.sh shipped before its roster moved
// into the file, and one that sets every key the format has. A member
// and a coordinator of different builds compare these bytes before
// joining, so any drift in key names, key order, omitempty or the
// variant/seed encodings splits a fleet. The variant and seed must also
// decode to the Go values the library runs.
func TestConfigGoldenHash(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		variant    Variant
		seed, want string
	}{
		{"fleetsmoke", `{
  "servers": 4, "groups": 2, "group_size": 2, "honest": 1,
  "message_size": 32, "variant": "trap", "iterations": 2,
  "topology": "square", "seed": "fleetsmoke"
}`, Trap, "fleetsmoke", "3f7c71825f7509e5d212c28131877d25980a1a263947d2af58551b5f45969926"},
		{"every key", `{
  "servers": 4, "groups": 2, "group_size": 2, "honest": 1,
  "message_size": 32, "variant": "nizk", "iterations": 2,
  "topology": "butterfly", "workers": 2, "buddies": 1, "seed": "golden",
  "coordinator": "127.0.0.1:9700",
  "members": ["127.0.0.1:9701", "127.0.0.1:9702", "127.0.0.1:9703", "127.0.0.1:9704"]
}`, NIZK, "golden", "fccc2d298128d722d690e94e548c80a04fab9f8dec6185f7ece5d0c8ea78dd25"},
	} {
		c, err := LoadConfig(writeConfig(t, tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(c.Hash()); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
		if c.Variant != tc.variant || string(c.Seed) != tc.seed {
			t.Errorf("%s: loaded variant %v seed %q, want %v %q", tc.name, c.Variant, c.Seed, tc.variant, tc.seed)
		}
	}
}

func TestConfigHash(t *testing.T) {
	// Two files, same config, different key order and whitespace.
	a := `{"servers":32,"groups":4,"group_size":8,"honest":2,
	       "message_size":160,"variant":"nizk","iterations":4,"topology":"square"}`
	b := `{
	  "topology": "square", "iterations": 4, "variant": "nizk",
	  "message_size": 160, "honest": 2, "group_size": 8,
	  "groups": 4, "servers": 32
	}`
	ca, err := LoadConfig(writeConfig(t, a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := LoadConfig(writeConfig(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Hash(), cb.Hash()) {
		t.Error("hash differs across formatting of the same config")
	}
	cb.Iterations = 5
	if bytes.Equal(ca.Hash(), cb.Hash()) {
		t.Error("hash identical across different configs")
	}
	if len(ca.Hash()) != 32 {
		t.Errorf("hash length = %d", len(ca.Hash()))
	}

	// Unknown fields, invalid values and a partial roster are rejected.
	if _, err := LoadConfig(writeConfig(t, `{"servers":1,"bogus":2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadConfig(writeConfig(t, a+` {"servers":99}`)); err == nil {
		t.Error("trailing second object accepted")
	}
	if _, err := LoadConfig(writeConfig(t, `{"servers":4,"groups":2,"group_size":2,"message_size":64,"variant":"zk"}`)); err == nil {
		t.Error("bad variant accepted")
	}
	if _, err := LoadConfig(writeConfig(t, `{"servers":4,"groups":2,"group_size":2,"message_size":64,"variant":"trap",
		"members":["a:1","b:1","c:1"]}`)); err == nil {
		t.Error("3 members accepted for 2 groups of 2")
	}
	if _, err := LoadConfig(writeConfig(t, `{"servers":4,"groups":2,"group_size":2,"message_size":64,"variant":"trap",
		"members":["a:1","b:1","","d:1"]}`)); err == nil {
		t.Error("empty member address accepted")
	}
}
