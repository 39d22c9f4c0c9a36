// Regression market: tiered buyers on a protein-structure dataset.
//
// This is the scenario the paper's introduction motivates: a commercially
// valuable regression dataset (the CASP protein-structure stand-in, d = 9)
// is too expensive for small labs to buy outright. With model-based pricing
// the broker sells the SAME trained model at different accuracy tiers, so a
// hedge fund, a startup and a student all get a version matching their
// budget — and the seller collects revenue from all three instead of one.
//
//	go run ./examples/regressionmarket
package main

import (
	"fmt"
	"log"

	"nimbus"
)

func main() {
	data, err := nimbus.StandIn("CASP", nimbus.GenConfig{Rows: 8000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	pair, err := nimbus.NewPair(data, nimbus.NewRand(8))
	if err != nil {
		log.Fatal(err)
	}
	seller, err := nimbus.NewSeller(pair, nimbus.Research{
		// Value grows steeply as the error approaches the optimum: the
		// convex regime where MBP's gains over flat pricing are largest.
		Value:  func(e float64) float64 { return 200 / (1 + 0.05*e*e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		log.Fatal(err)
	}

	broker := nimbus.NewBroker(9)
	offering, err := broker.List(nimbus.OfferingConfig{
		Seller: seller,
		Model:  nimbus.LinearRegression{Ridge: 1e-4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offering: %s\n", offering.Name)

	// Three buyer tiers whose budgets span the offered price range: the
	// hedge fund can afford the top version, the startup a mid tier, and
	// the student only the entry tier.
	curve, err := offering.Curve("squared")
	if err != nil {
		log.Fatal(err)
	}
	menu := curve.Points()
	lo, hi := menu[0].Price, menu[len(menu)-1].Price
	tiers := []struct {
		name   string
		budget float64
	}{
		{"hedge-fund", hi * 1.1},
		{"startup", lo + (hi-lo)/3},
		{"student", lo * 1.01},
	}
	fmt.Printf("\n%-12s %10s %10s %16s %16s\n", "buyer", "budget", "paid", "expected error", "realized error")
	for _, tier := range tiers {
		buyer, err := nimbus.NewBuyer(tier.name, tier.budget)
		if err != nil {
			log.Fatal(err)
		}
		p, err := buyer.BuyBest(broker, offering.Name, "squared")
		if err != nil {
			log.Fatal(err)
		}
		realized := nimbus.SquaredLoss{}.Eval(p.Weights, pair.Test)
		fmt.Printf("%-12s %10.2f %10.2f %16.4f %16.4f\n",
			tier.name, tier.budget, p.Price, p.ExpectedError, realized)
	}

	fmt.Printf("\nbroker revenue from tiered sales: %.2f\n", broker.TotalRevenue())
	fmt.Println("every tier received the same unbiased model, degraded only by calibrated noise.")

	// Show that a buyer can also shop by error budget: "I need test error
	// below twice the optimal" — the broker finds the cheapest such tier.
	optimalErr := nimbus.SquaredLoss{}.Eval(offering.Optimal, pair.Test)
	budgetBuyer, err := nimbus.NewBuyer("lab", 1e9)
	if err != nil {
		log.Fatal(err)
	}
	p, err := budgetBuyer.BuyWithErrorBudget(broker, offering.Name, "squared", 2*optimalErr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nerror-budget purchase (≤ %.4f): paid %.2f for expected error %.4f\n",
		2*optimalErr, p.Price, p.ExpectedError)
}
