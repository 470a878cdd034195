package workload

import (
	"sort"
	"testing"
)

func TestListTags(t *testing.T) {
	all := List()
	if len(all) < 26 {
		t.Fatalf("List() returned %d workloads, want >= 26", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Fatal("List() is not sorted by name")
	}
	mem := List(TagMemIntensive)
	low := List(TagLowPotential)
	if len(mem) != 17 || len(low) != 9 {
		t.Fatalf("mem=%d low=%d, want 17/9", len(mem), len(low))
	}
	// Tag filters are AND-composed.
	if got := List(TagBuiltin, TagMemIntensive); len(got) != 17 {
		t.Fatalf("AND filter returned %d, want 17", len(got))
	}
	if got := List("no-such-tag"); len(got) != 0 {
		t.Fatalf("unknown tag returned %d entries", len(got))
	}
	// The derived views agree with the tag filters.
	if names := MemoryIntensive(); len(names) != len(mem) {
		t.Fatalf("MemoryIntensive()=%d, List(mem)=%d", len(names), len(mem))
	}
	for _, info := range all {
		if len(info.Tags) == 0 {
			t.Fatalf("workload %q has no tags", info.Name)
		}
		if info.About == "" {
			t.Fatalf("workload %q has no About", info.Name)
		}
	}
}
