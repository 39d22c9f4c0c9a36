package analysis

import "testing"

// The publication-and-lifecycle rule family: snapshot immutability and
// resource release.

func TestSnapshotImmutabilityGolden(t *testing.T) {
	checkGolden(t, "snapshot", []Rule{SnapshotImmutability{}})
}

func TestResourceLifecycleGolden(t *testing.T) {
	checkGolden(t, "resource", []Rule{ResourceLifecycle{}})
}

// TestResourceLifecycleCrossPackage proves the owns/takes summaries
// survive a package boundary: the constructor and the adopting sink
// live in resipa/lib, the leaks in resipa/app.
func TestResourceLifecycleCrossPackage(t *testing.T) {
	checkGoldenGroup(t, "resipa", []Rule{ResourceLifecycle{}})
}
