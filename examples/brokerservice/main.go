// Broker service: the Nimbus demo in one process.
//
// Starts the HTTP broker on a local port, then drives it with the Go
// client the way the SIGMOD demo walks its audience through the system:
// browse the menu, inspect a price-error curve, and buy through all three
// purchase options.
//
//	go run ./examples/brokerservice
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"nimbus"
)

func main() {
	// Seller side: one classification dataset listed on a memory-only
	// registry (set RegistryConfig.Root to journal it on disk instead).
	registry, err := nimbus.OpenRegistry(nimbus.RegistryConfig{Commission: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := registry.List(nimbus.DatasetSpec{
		ID:         "Simulated2",
		Owner:      "demo-seller",
		Generator:  "Simulated2",
		Rows:       4000,
		Model:      "logistic-regression",
		Samples:    150,
		Seed:       31,
		ValueScale: 80,
	}, nil); err != nil {
		log.Fatal(err)
	}

	// Serve the marketplace over HTTP (an in-process listener keeps the
	// example self-contained; `cmd/nimbusd` is the standalone daemon).
	srv := httptest.NewServer(nimbus.NewServer(registry))
	defer srv.Close()
	fmt.Printf("nimbus broker serving on %s\n\n", srv.URL)

	ctx := context.Background()
	client := nimbus.NewClient(srv.URL)

	// 1. Browse the menu.
	menu, err := client.Menu(ctx)
	if err != nil {
		log.Fatal(err)
	}
	offering := menu.Offerings[0]
	fmt.Printf("menu: %s (model %s, losses %v, %d train rows)\n",
		offering.Name, offering.Model, offering.Losses, offering.TrainRows)

	// 2. Inspect the zero-one price-error curve.
	curve, err := client.Curve(ctx, offering.Name, "zero-one")
	if err != nil {
		log.Fatal(err)
	}
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	fmt.Printf("curve: error %.4f @ %.2f ... error %.4f @ %.2f\n",
		first.Error, first.Price, last.Error, last.Price)

	// 3. Buy through each of the paper's three options.
	for _, req := range []nimbus.BuyRequest{
		{Offering: offering.Name, Loss: "zero-one", Option: "quality", Value: 10},
		{Offering: offering.Name, Loss: "zero-one", Option: "error-budget", Value: first.Error * 0.7},
		{Offering: offering.Name, Loss: "zero-one", Option: "price-budget", Value: last.Price},
	} {
		p, err := client.Buy(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bought via %-13s: price %7.2f, expected error %.4f, δ=%.4f\n",
			req.Option, p.Price, p.ExpectedError, p.NCP)
	}

	st := registry.Stats()
	fmt.Printf("\nbroker ledger: %d sales, revenue %.2f\n", st.Sales, st.Gross)
	if err := registry.Close(); err != nil {
		log.Fatal(err)
	}
}
