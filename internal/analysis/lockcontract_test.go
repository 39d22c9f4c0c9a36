package analysis

import "testing"

// The goldens are lock-contract's behaviour contract, one per aspect:
// guarded fields and //lint:holds call sites (mutexguard), the declared
// lock order (lockorder), release on every exit (unlockpath), and all of
// them across a package boundary (ipa).

func TestMutexDisciplineGolden(t *testing.T) {
	checkGolden(t, "mutexguard", []Rule{LockContract{}})
}

func TestLockOrderGolden(t *testing.T) {
	checkGolden(t, "lockorder", []Rule{LockContract{}})
}

func TestUnlockPathGolden(t *testing.T) {
	checkGolden(t, "unlockpath", []Rule{LockContract{}})
}

func TestLockContractGolden(t *testing.T) {
	checkGoldenGroup(t, "ipa", []Rule{LockContract{}})
}

// TestLockContractQuietWithoutContracts makes sure the rule reports
// nothing on a package that declares no lock contracts and leaves no lock
// held.
func TestLockContractQuietWithoutContracts(t *testing.T) {
	pkg := loadGolden(t, "callgraph")
	if diags := Run([]*Package{pkg}, []Rule{LockContract{}}); len(diags) != 0 {
		t.Errorf("contract-free package produced %v", diags)
	}
}
