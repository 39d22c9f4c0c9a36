// Sparse and nonlinear models in the marketplace.
//
// The paper's framework prices any model whose hypothesis space is R^d.
// This example shows two ways to stretch that beyond plain linear models
// while keeping every guarantee intact:
//
//  1. polynomial feature expansion — sell a nonlinear (quadratic) model by
//     expanding features first; the hypothesis space is still a vector;
//  2. lasso (elastic-net) fits — sell a sparse model that only reveals a
//     handful of nonzero weights per purchase.
//
// go run ./examples/sparsemodels
package main

import (
	"fmt"
	"log"

	"nimbus"
)

func main() {
	src := nimbus.NewRand(71)

	// Ground truth: y depends quadratically on x0 and linearly on x3 only.
	const n, d = 2000, 8
	m := nimbus.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = src.Normal(0, 1)
		}
		y[i] = 2*row[0]*row[0] - 3*row[3] + src.Normal(0, 0.05)
	}
	data, err := nimbus.NewDataset("telemetry", nimbus.Regression, m, y)
	if err != nil {
		log.Fatal(err)
	}

	// Plain linear regression cannot express x0².
	pair, err := nimbus.NewPair(data, nimbus.NewRand(72))
	if err != nil {
		log.Fatal(err)
	}
	wLin, err := nimbus.LinearRegression{Ridge: 1e-6}.Fit(pair.Train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw linear model test error:      %8.4f\n",
		nimbus.SquaredLoss{}.Eval(wLin, pair.Test))

	// Degree-2 expansion makes the quadratic term learnable...
	expTrain, err := nimbus.PolynomialFeatures(pair.Train, 2)
	if err != nil {
		log.Fatal(err)
	}
	expTest, err := nimbus.PolynomialFeatures(pair.Test, 2)
	if err != nil {
		log.Fatal(err)
	}
	wPoly, err := nimbus.LinearRegression{Ridge: 1e-6}.Fit(expTrain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degree-2 expanded model error:    %8.4f (%d features)\n",
		nimbus.SquaredLoss{}.Eval(wPoly, expTest), expTrain.D())

	// ...and the lasso finds the 3-term structure in the expansion.
	lasso := nimbus.Lasso{Alpha: 0.02, Ridge: 1e-8}
	wSparse, err := lasso.Fit(expTrain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lasso on expansion:               %8.4f (sparsity %.0f%%)\n",
		nimbus.SquaredLoss{}.Eval(wSparse, expTest), 100*nimbus.Sparsity(wSparse))
	fmt.Println("\nsurviving terms:")
	for j, w := range wSparse {
		if w != 0 && (w > 0.05 || w < -0.05) {
			fmt.Printf("  %-8s %+.3f\n", expTrain.Columns[j], w)
		}
	}

	// The sparse quadratic model sells exactly like any other: list the
	// expanded dataset and the market machinery is unchanged.
	expData, err := nimbus.PolynomialFeatures(data, 2)
	if err != nil {
		log.Fatal(err)
	}
	expPair, err := nimbus.NewPair(expData, nimbus.NewRand(73))
	if err != nil {
		log.Fatal(err)
	}
	seller, err := nimbus.NewSeller(expPair, nimbus.Research{
		Value:  func(e float64) float64 { return 60 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		log.Fatal(err)
	}
	broker := nimbus.NewBroker(74)
	offering, err := broker.List(nimbus.OfferingConfig{
		Seller: seller,
		Model:  nimbus.LinearRegression{Ridge: 1e-6},
	})
	if err != nil {
		log.Fatal(err)
	}
	p, err := broker.BuyWithPriceBudget(offering.Name, "squared", 1e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlisted %s: best version sells for %.2f with expected error %.4f\n",
		offering.Name, p.Price, p.ExpectedError)
}
