package pricing

import (
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/rng"
)

func benchFixture(b *testing.B) (*dataset.Pair, []float64) {
	b.Helper()
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 400, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pair, err := dataset.NewPair(d, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	w, err := ml.LinearRegression{Ridge: 1e-3}.Fit(pair.Train)
	if err != nil {
		b.Fatal(err)
	}
	return pair, w
}

func BenchmarkFunctionPrice(b *testing.B) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{X: float64(i + 1), Price: 10 + float64(i)}
	}
	f, err := NewFunction(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Price(float64(i%120) + 0.5)
	}
}

func BenchmarkMonteCarloTransform(b *testing.B) {
	pair, w := benchFixture(b)
	cfg := TransformConfig{
		Optimal: w, Loss: ml.SquaredLoss{}, Data: pair.Test,
		Xs: DefaultGrid(10), Samples: 100, Seed: 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloTransform(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussianTransform(b *testing.B) {
	pair, w := benchFixture(b)
	grid := DefaultGrid(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GaussianTransform(w, ml.SquaredLoss{}, pair.Test, grid); err != nil {
			b.Fatal(err)
		}
	}
}
