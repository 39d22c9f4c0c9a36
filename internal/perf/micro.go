package perf

import (
	"errors"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
)

// Microbench is one named kernel benchmark on the pricing path.
type Microbench struct {
	Name  string
	Bench func(b *testing.B)
}

// Microbenches builds the solver kernel suite. The inputs are fixed-seed
// synthetic problems, so every trajectory point measures the identical
// workload:
//
//   - opt/dp/n=100: the buyer-valuation dynamic program (Algorithm 1),
//     the O(n²) core of every curve construction;
//   - opt/bruteforce/n=8: the exact MILP-equivalent enumeration
//     (Algorithm 2) at a small point count — the paper's Figure 9
//     comparison partner;
//   - opt/interpolate-l2/n=50: the PAV isotonic L2 projection that snaps
//     price targets into the arbitrage-free region;
//   - opt/interpolate-l1/n=20: the Dykstra-style L1 variant;
//   - noise/gaussian/d=90: the per-sale Gaussian model perturbation at
//     YearMSD dimensionality — the broker's real-time path;
//   - market/buy/mem: one full in-memory purchase (quote, perturb,
//     finalize, ledger append) against a pre-listed offering — the same
//     path whose allocation budget TestBuyAllocationBudget pins in
//     internal/market, here timed and reported as allocs/op.
func Microbenches() []Microbench {
	dp := benchProblem(100)
	bf := benchProblem(8)
	l2Targets := benchTargets(101, 50)
	l1Targets := benchTargets(102, 20)
	return []Microbench{
		{Name: "opt/dp/n=100", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.MaximizeRevenueDP(dp); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "opt/bruteforce/n=8", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.MaximizeRevenueBruteForce(bf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "opt/interpolate-l2/n=50", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := opt.InterpolateL2(l2Targets); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "opt/interpolate-l1/n=20", Bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := opt.InterpolateL1(l1Targets); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "noise/gaussian/d=90", Bench: func(b *testing.B) {
			src := rng.New(1)
			optimal := src.NormalVec(90, 1) // YearMSD dimensionality
			mech := noise.Gaussian{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mech.Perturb(optimal, 0.5, src)
			}
		}},
		{Name: "market/buy/mem", Bench: func(b *testing.B) {
			broker, offering := benchMarket()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := broker.BuyAtQuality(offering, "squared", 50); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// benchMarket lists one small fixed-seed offering on an in-memory broker
// (no journal), so the buy kernel isolates the quote-perturb-finalize
// path from durability I/O.
func benchMarket() (*market.Broker, string) {
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 200, Seed: 7})
	if err != nil {
		panic(err) // fixed-seed input; cannot fail
	}
	pair, err := dataset.NewPair(d, rng.New(8))
	if err != nil {
		panic(err)
	}
	seller, err := market.NewSeller(pair, market.Research{
		Value:  func(e float64) float64 { return 80 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		panic(err)
	}
	broker := market.NewBroker(9)
	o, err := broker.List(market.OfferingConfig{
		Seller:  seller,
		Model:   ml.LinearRegression{Ridge: 1e-3},
		Grid:    pricing.DefaultGrid(10),
		Samples: 30,
		Seed:    10,
	})
	if err != nil {
		panic(err)
	}
	return broker, o.Name
}

// benchProblem mirrors internal/opt's benchmark input: n buyer points with
// strictly increasing quality and non-decreasing value.
func benchProblem(n int) *opt.Problem {
	src := rng.New(99)
	pts := make([]opt.BuyerPoint, n)
	x, v := 0.0, 0.0
	for i := 0; i < n; i++ {
		x += 0.5 + 3*src.Float64()
		v += 10 * src.Float64()
		pts[i] = opt.BuyerPoint{X: x, Value: v, Mass: 0.1 + src.Float64()}
	}
	p, err := opt.NewProblem(pts)
	if err != nil {
		panic(err) // fixed-seed input; cannot fail
	}
	return p
}

// benchTargets builds n interpolation targets with increasing quality.
func benchTargets(seed int64, n int) []opt.PricePoint {
	src := rng.New(seed)
	targets := make([]opt.PricePoint, n)
	x := 0.0
	for i := range targets {
		x += 0.5 + src.Float64()
		targets[i] = opt.PricePoint{X: x, Target: 30 * src.Float64()}
	}
	return targets
}

// MicroOptions configures a microbenchmark sweep.
type MicroOptions struct {
	// BenchTime bounds each benchmark's measurement time; 0 keeps the
	// testing package's default (1s per benchmark). The CI smoke job uses
	// a small value — its output proves the pipeline, not the hardware.
	BenchTime time.Duration
}

// RunMicro measures every kernel in Microbenches and returns the results
// in suite order.
func RunMicro(opts MicroOptions) ([]MicroResult, error) {
	if opts.BenchTime > 0 {
		restore, err := setBenchTime(opts.BenchTime)
		if err != nil {
			return nil, err
		}
		defer restore()
	}
	var out []MicroResult
	for _, mb := range Microbenches() {
		res := testing.Benchmark(mb.Bench)
		if res.N == 0 {
			return nil, fmt.Errorf("benchmark %s did not run (failed inside testing.Benchmark)", mb.Name)
		}
		out = append(out, MicroResult{
			Name:        mb.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		})
	}
	return out, nil
}

// initTestFlags registers the testing package's flags exactly once, so
// test.benchtime can be set programmatically from a non-test binary.
// testing.Init is a no-op when the process is already a test binary.
var initTestFlags sync.Once

// setBenchTime overrides the testing package's per-benchmark time budget
// and returns a restore func for the previous value.
func setBenchTime(d time.Duration) (restore func(), err error) {
	initTestFlags.Do(testing.Init)
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return nil, errors.New("test.benchtime flag not registered")
	}
	prev := f.Value.String()
	if err := f.Value.Set(d.String()); err != nil {
		return nil, err
	}
	return func() {
		//lint:ignore no-dropped-error restoring a value the flag previously held cannot fail
		f.Value.Set(prev)
	}, nil
}
