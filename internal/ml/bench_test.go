package ml

import (
	"testing"

	"nimbus/internal/dataset"
)

func benchReg(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	return dataset.Simulated1(dataset.GenConfig{Rows: n, Seed: 77})
}

func benchCls(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	return dataset.Simulated2(dataset.GenConfig{Rows: n, Seed: 78})
}

func BenchmarkLinearRegressionFit(b *testing.B) {
	d := benchReg(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LinearRegression{Ridge: 1e-4}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	d := benchCls(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LogisticRegression{Ridge: 1e-4}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearSVMFit(b *testing.B) {
	d := benchCls(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LinearSVM{Ridge: 1e-3, MaxIter: 500}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSquaredLossEval(b *testing.B) {
	d := benchReg(b, 10000)
	w, err := LinearRegression{}.Fit(d)
	if err != nil {
		b.Fatal(err)
	}
	loss := SquaredLoss{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.Eval(w, d)
	}
}

func BenchmarkZeroOneLossEval(b *testing.B) {
	d := benchCls(b, 10000)
	w, err := LogisticRegression{Ridge: 1e-4}.Fit(d)
	if err != nil {
		b.Fatal(err)
	}
	loss := ZeroOneLoss{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.Eval(w, d)
	}
}

// benchGrid is nimbusd's 50-point quality grid as NCPs δ = 1/x.
func benchGrid() []float64 {
	deltas := make([]float64, 50)
	for k := range deltas {
		deltas[k] = 1 / (1 + 99*float64(k)/49)
	}
	return deltas
}

// benchExpectedEval times one error curve of loss on the Simulated2 test
// set that nimbusd lists (2500 rows at scale 1e-3) over its 50-point grid.
func benchExpectedEval(b *testing.B, loss ExpectedLoss) {
	train, test := benchCls(b, 7500), dataset.Simulated2(dataset.GenConfig{Rows: 2500, Seed: 79})
	w, err := LogisticRegression{Ridge: 1e-4}.Fit(train)
	if err != nil {
		b.Fatal(err)
	}
	deltas := benchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss.ExpectedEval(w, test, deltas)
	}
}

func BenchmarkExpectedEvalLogistic(b *testing.B) { benchExpectedEval(b, LogisticLoss{Reg: 1e-4}) }

func BenchmarkExpectedEvalZeroOne(b *testing.B) { benchExpectedEval(b, ZeroOneLoss{}) }
