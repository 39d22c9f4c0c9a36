package market

import (
	"math"
	"testing"

	"nimbus/internal/ml"
	"nimbus/internal/pricing"
)

func TestResearchFromSamplesValidation(t *testing.T) {
	if _, err := ResearchFromSamples(nil); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := ResearchFromSamples([]ResearchSample{{Error: 1, Value: 1, Demand: 1}}); err == nil {
		t.Fatal("single sample accepted")
	}
	dup := []ResearchSample{
		{Error: 1, Value: 5, Demand: 1},
		{Error: 1, Value: 7, Demand: 1},
	}
	if _, err := ResearchFromSamples(dup); err == nil {
		t.Fatal("only-duplicate errors accepted")
	}
	neg := []ResearchSample{
		{Error: 0, Value: -1, Demand: 1},
		{Error: 1, Value: 1, Demand: 1},
	}
	if _, err := ResearchFromSamples(neg); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestResearchFromSamplesCleanData(t *testing.T) {
	r, err := ResearchFromSamples([]ResearchSample{
		{Error: 0.1, Value: 90, Demand: 1},
		{Error: 0.5, Value: 50, Demand: 2},
		{Error: 1.0, Value: 10, Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exact at sample points.
	if r.Value(0.1) != 90 || r.Value(1.0) != 10 || r.Demand(0.5) != 2 {
		t.Fatalf("values at samples: %v %v %v", r.Value(0.1), r.Value(1.0), r.Demand(0.5))
	}
	// Interpolated between.
	if got := r.Value(0.3); math.Abs(got-70) > 1e-12 {
		t.Fatalf("Value(0.3) = %v, want 70", got)
	}
	// Clamped outside.
	if r.Value(0.01) != 90 || r.Value(5) != 10 {
		t.Fatal("clamping outside range broken")
	}
}

func TestResearchFromSamplesRepairsNoise(t *testing.T) {
	// Survey noise makes value rise with error at one point; the fit must
	// be non-increasing everywhere.
	r, err := ResearchFromSamples([]ResearchSample{
		{Error: 0.1, Value: 80, Demand: 1},
		{Error: 0.2, Value: 85, Demand: 1}, // noise: higher error, higher value
		{Error: 0.5, Value: 40, Demand: 1},
		{Error: 1.0, Value: 45, Demand: 1}, // noise again
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for e := 0.05; e <= 1.2; e += 0.01 {
		v := r.Value(e)
		if v > prev+1e-9 {
			t.Fatalf("fitted value increases at error %v", e)
		}
		prev = v
	}
}

func TestResearchFromSamplesAveragesDuplicates(t *testing.T) {
	r, err := ResearchFromSamples([]ResearchSample{
		{Error: 0.1, Value: 80, Demand: 2},
		{Error: 0.1, Value: 100, Demand: 4},
		{Error: 1.0, Value: 10, Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value(0.1); got != 90 {
		t.Fatalf("duplicate value average %v, want 90", got)
	}
	if got := r.Demand(0.1); got != 3 {
		t.Fatalf("duplicate demand average %v, want 3", got)
	}
}

func TestResearchFromSamplesDrivesOffering(t *testing.T) {
	// End to end: survey samples → research → listing.
	research, err := ResearchFromSamples([]ResearchSample{
		{Error: 0.5, Value: 90, Demand: 1},
		{Error: 2, Value: 60, Demand: 2},
		{Error: 5, Value: 20, Demand: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	seller := regSeller(t)
	seller.Research = research
	b := NewBroker(91)
	o, err := b.List(OfferingConfig{
		Seller: seller,
		Model:  ml.LinearRegression{Ridge: 1e-3},
		Grid:   pricing.DefaultGrid(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.VerifySLA(); err != nil {
		t.Fatal(err)
	}
	if o.ExpectedRevenue <= 0 {
		t.Fatal("no expected revenue from survey-driven research")
	}
}
