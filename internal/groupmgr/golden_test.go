package groupmgr

import (
	"reflect"
	"testing"

	"atom/internal/beacon"
)

// TestFormGoldenVector pins the exact group assignment for a fixed
// beacon seed and round. Group formation is consensus-critical: every
// participant derives the layout independently from the beacon output,
// so any drift in the sampling stream, the rotation, or the buddy
// assignment silently partitions the fleet. This vector freezes all
// three.
func TestFormGoldenVector(t *testing.T) {
	b := beacon.New([]byte("atom/golden/v1"))
	cfg := Config{NumServers: 16, NumGroups: 4, GroupSize: 4, HonestMin: 2, BuddyCount: 1}
	groups, err := Form(cfg, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Group{
		{ID: 0, Members: []int{7, 0, 12, 6}, Buddies: []int{1}},
		{ID: 1, Members: []int{1, 9, 7, 0}, Buddies: []int{2}},
		{ID: 2, Members: []int{14, 10, 4, 0}, Buddies: []int{3}},
		{ID: 3, Members: []int{10, 15, 4, 14}, Buddies: []int{0}},
	}
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("group %d = %+v, want %+v", i, g, want[i])
		}
	}
}
