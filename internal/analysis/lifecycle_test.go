package analysis

import "testing"

// The resource-lifecycle rule: owned resources are released on every
// exit path.

func TestResourceLifecycleGolden(t *testing.T) {
	checkGolden(t, "resource", []Rule{ResourceLifecycle{}})
}

// TestResourceLifecycleCrossPackage proves the owns/takes summaries
// survive a package boundary: the constructor and the adopting sink
// live in resipa/lib, the leaks in resipa/app.
func TestResourceLifecycleCrossPackage(t *testing.T) {
	checkGoldenGroup(t, "resipa", []Rule{ResourceLifecycle{}})
}
