package ecc

import (
	"crypto/rand"
	"testing"
)

// TestTableRegistryKeepsLiveBase: a base that keeps being used must
// keep its comb while more throwaway bases than the registry holds are
// registered around it — a deployment's group keys must not lose their
// tables to the dead keys of deployments set up after it. Throwaways
// register an empty comb through storeTable, the step of WarmBase that
// evicts, so only the live bases cost a table build.
func TestTableRegistryKeepsLiveBase(t *testing.T) {
	randomBase := func() *Point {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return BaseMul(k)
	}
	registered := func(key [33]byte) bool {
		tableRegistryMu.RLock()
		defer tableRegistryMu.RUnlock()
		_, ok := tableRegistry[key]
		return ok
	}
	var throwaways [][33]byte
	t.Cleanup(func() {
		tableRegistryMu.Lock()
		defer tableRegistryMu.Unlock()
		for _, key := range throwaways {
			delete(tableRegistry, key)
		}
	})
	for rep := 0; rep < 6; rep++ {
		live := randomBase()
		WarmBase(live)
		for i := 0; i < tableRegistryCap+4; i++ {
			key := tableKey(randomBase())
			throwaways = append(throwaways, key)
			storeTable(key, &combTable{})
			if !registered(tableKey(live)) {
				t.Fatalf("repetition %d: live base lost its table after %d throwaway bases", rep, i+1)
			}
			// Both hit paths count as use.
			if rep%2 == 0 {
				lookupTable(live)
			} else {
				WarmBase(live)
			}
		}
	}
}
