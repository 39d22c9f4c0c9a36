// Classification market: pricing a classifier by misclassification rate.
//
// The buyer of a classifier cares about the 0/1 error, not the logistic
// loss it was trained with. Nimbus supports exactly this split (λ vs ε in
// the paper): the broker trains logistic regression on the SUSY stand-in
// but quotes and sells against the zero-one error curve.
//
//	go run ./examples/classificationmarket
package main

import (
	"fmt"
	"log"

	"nimbus"
)

func main() {
	data, err := nimbus.StandIn("SUSY", nimbus.GenConfig{Rows: 6000, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	pair, err := nimbus.NewPair(data, nimbus.NewRand(22))
	if err != nil {
		log.Fatal(err)
	}
	seller, err := nimbus.NewSeller(pair, nimbus.Research{
		Value:  func(e float64) float64 { return 120 * (1 - e) }, // worth more as accuracy rises
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		log.Fatal(err)
	}

	broker := nimbus.NewBroker(23)
	offering, err := broker.List(nimbus.OfferingConfig{
		Seller: seller,
		Model:  nimbus.LogisticRegression{Ridge: 1e-4},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same offering quotes two different error functions.
	fmt.Printf("offering %s supports losses: %v\n\n", offering.Name, offering.LossNames())
	for _, lossName := range offering.LossNames() {
		curve, err := offering.Curve(lossName)
		if err != nil {
			log.Fatal(err)
		}
		pts := curve.Points()
		fmt.Printf("%s curve: error %.4f at cheapest tier → %.4f at best tier\n",
			lossName, pts[0].Error, pts[len(pts)-1].Error)
	}

	// Buy by accuracy target: "I need at most 25% misclassification."
	p, err := broker.BuyWithErrorBudget(offering.Name, "zero-one", 0.25)
	if err != nil {
		log.Fatal(err)
	}
	realized := nimbus.ZeroOneLoss{}.Eval(p.Weights, pair.Test)
	fmt.Printf("\nbought ≤25%% error tier: paid %.2f, expected %.4f, realized %.4f\n",
		p.Price, p.ExpectedError, realized)

	// A cheaper, noisier tier for a hobbyist: quality 2 (δ = 0.5).
	cheap, err := broker.BuyAtQuality(offering.Name, "zero-one", 2)
	if err != nil {
		log.Fatal(err)
	}
	cheapRealized := nimbus.ZeroOneLoss{}.Eval(cheap.Weights, pair.Test)
	fmt.Printf("budget tier (quality 2): paid %.2f, expected %.4f, realized %.4f\n",
		cheap.Price, cheap.ExpectedError, cheapRealized)

	fmt.Printf("\nprice gap between tiers: %.2f — accuracy is what you pay for.\n", p.Price-cheap.Price)
}
