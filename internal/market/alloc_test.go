package market

import (
	"testing"

	"nimbus/internal/journal"
)

// The buy path is Figure 1's real-time loop: quote, perturb h*, sell.
// These budgets are measured allocation counts per sale, pinned exactly:
// a new allocation on the path fails the test, and so does a saving, so
// that the budget is lowered to the new count and keeps holding it.
const (
	// inMemoryBuyAllocs: the per-sale noise stream (rng.Split builds the
	// child Source, its math/rand.Rand and its PCG in one allocation), the
	// noisy weights the noise is drawn into, and the returned purchase.
	inMemoryBuyAllocs = 3
	// journaledBuyAllocs adds the encoded record and one commit batch
	// (its header and its recs and sales slices) per sale.
	journaledBuyAllocs = 7
)

// checkAllocBudget requires buy to allocate exactly budget times per call.
// One warm-up sale creates the offering's books entry; after it, folding a
// sale into the books allocates nothing.
func checkAllocBudget(t *testing.T, budget int, buy func()) {
	t.Helper()
	buy()
	got := testing.AllocsPerRun(100, buy)
	if int(got) > budget {
		t.Errorf("a sale made %v allocations, over its budget of %d", got, budget)
	} else if int(got) < budget {
		t.Errorf("a sale made %v allocations, under its budget of %d: lower the budget", got, budget)
	}
}

func TestBuyAllocationBudget(t *testing.T) {
	b := NewBroker(5)
	o := listSmall(t, b, "alloc", 50)
	checkAllocBudget(t, inMemoryBuyAllocs, func() {
		if _, err := b.BuyAtQuality(o.Name, "squared", 2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJournaledBuyAllocationBudget runs the durable sale path — marshal,
// commit queue, a real journal append — under every sync policy.
func TestJournaledBuyAllocationBudget(t *testing.T) {
	for _, policy := range []journal.SyncPolicy{journal.SyncAlways, journal.SyncInterval, journal.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			j, err := journal.Open(t.TempDir(), journal.Options{Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := j.Close(); err != nil {
					t.Error(err)
				}
			}()
			b := NewBroker(5)
			o := listSmall(t, b, "alloc", 50)
			b.SetJournal(j)
			checkAllocBudget(t, journaledBuyAllocs, func() {
				if _, err := b.BuyAtQuality(o.Name, "squared", 2); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
