// Command nimbus-cli is the buyer's terminal client for a running nimbusd
// broker, plus the operator's offline journal inspector.
//
//	nimbus-cli -addr http://localhost:8080 menu
//	nimbus-cli curve -offering Simulated1/linear-regression -loss squared
//	nimbus-cli buy -offering Simulated1/linear-regression -loss squared -option price-budget -value 25
//	nimbus-cli journal verify -dir /var/lib/nimbus/journal
//
// Against a multi-tenant daemon (nimbusd -data-dir), sellers manage their
// dataset markets:
//
//	nimbus-cli datasets
//	nimbus-cli list-dataset -id acme-houses -csv houses.csv -task regression -target price -owner acme
//	nimbus-cli delist-dataset -id acme-houses
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/registry"
	"nimbus/internal/server"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "broker base URL")
	flag.Parse()
	if err := run(*addr, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "nimbus-cli:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: nimbus-cli [-addr URL] <menu|curve|buy|stats|statement|datasets|list-dataset|delist-dataset|journal> [flags]")
	}
	client := server.NewClient(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	switch cmd := args[0]; cmd {
	case "journal":
		// Offline: scans a journal directory on the local filesystem, no
		// broker required.
		if len(args) < 2 || args[1] != "verify" {
			return fmt.Errorf("usage: nimbus-cli journal verify -dir DIR [-json]")
		}
		fs := flag.NewFlagSet("journal verify", flag.ContinueOnError)
		dir := fs.String("dir", "", "journal directory (required)")
		asJSON := fs.Bool("json", false, "emit the report as JSON")
		if err := fs.Parse(args[2:]); err != nil {
			return err
		}
		if *dir == "" {
			return fmt.Errorf("journal verify: -dir is required")
		}
		rep, err := journal.Verify(*dir, nil)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else if err := rep.Write(os.Stdout); err != nil {
			return err
		}
		if rep.Err != "" {
			return fmt.Errorf("journal verify: unrecoverable: %s", rep.Err)
		}
		return nil

	case "stats":
		stats, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("offerings: %d\nsales:     %d\nrevenue:   %.2f\nfees:      %.2f\n",
			stats.Offerings, stats.Sales, stats.TotalRevenue, stats.BrokerFees)
		return nil

	case "statement":
		st, err := client.Statement(ctx)
		if err != nil {
			return err
		}
		return st.Write(os.Stdout)

	case "menu":
		menu, err := client.Menu(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-35s %-22s %-8s %-8s %-4s %s\n", "OFFERING", "MODEL", "TRAIN", "TEST", "D", "LOSSES")
		for _, o := range menu.Offerings {
			fmt.Printf("%-35s %-22s %-8d %-8d %-4d %v\n", o.Name, o.Model, o.TrainRows, o.TestRows, o.Features, o.Losses)
		}
		return nil

	case "curve":
		fs := flag.NewFlagSet("curve", flag.ContinueOnError)
		offering := fs.String("offering", "", "offering name (required)")
		loss := fs.String("loss", "", "reporting loss (required)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *offering == "" || *loss == "" {
			return fmt.Errorf("curve: -offering and -loss are required")
		}
		curve, err := client.Curve(ctx, *offering, *loss)
		if err != nil {
			return err
		}
		fmt.Printf("price-error curve for %s (%s)\n%10s %14s %12s\n", curve.Offering, curve.Loss, "1/NCP", "exp. error", "price")
		for _, p := range curve.Points {
			fmt.Printf("%10.2f %14.6f %12.4f\n", p.X, p.Error, p.Price)
		}
		return nil

	case "buy":
		fs := flag.NewFlagSet("buy", flag.ContinueOnError)
		offering := fs.String("offering", "", "offering name (required)")
		loss := fs.String("loss", "", "reporting loss (required)")
		option := fs.String("option", "price-budget", "quality, error-budget or price-budget")
		value := fs.Float64("value", 0, "quality / error budget / price budget")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *offering == "" || *loss == "" {
			return fmt.Errorf("buy: -offering and -loss are required")
		}
		p, err := client.Buy(ctx, server.BuyRequest{
			Offering: *offering, Loss: *loss, Option: *option, Value: *value,
		})
		if err != nil {
			return err
		}
		fmt.Printf("purchased %s (%s)\n  quality 1/NCP : %.4f\n  NCP δ         : %.6f\n  price         : %.4f\n  expected error: %.6f\n  weights (%d)  : %.4f...\n",
			p.Offering, p.Loss, p.X, p.NCP, p.Price, p.ExpectedError, len(p.Weights), p.Weights[0])
		return nil

	case "datasets":
		ds, err := client.Datasets(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %-15s %-24s %-6s %10s\n", "DATASET", "OWNER", "SOURCE", "SALES", "GROSS")
		for _, d := range ds.Datasets {
			fmt.Printf("%-20s %-15s %-24s %-6d %10.2f\n", d.ID, d.Owner, d.Source, d.Sales, d.Gross)
		}
		fmt.Printf("%d market(s), %d sale(s), gross %.2f\n", ds.Markets, ds.Sales, ds.Gross)
		return nil

	case "list-dataset":
		fs := flag.NewFlagSet("list-dataset", flag.ContinueOnError)
		var spec registry.Spec
		fs.StringVar(&spec.ID, "id", "", "dataset ID, unique among live markets (required)")
		fs.StringVar(&spec.Owner, "owner", "", "seller the market's payouts accrue to")
		fs.StringVar(&spec.Generator, "generator", "", "built-in dataset source (mutually exclusive with -csv)")
		csvPath := fs.String("csv", "", "CSV file to upload as the dataset (mutually exclusive with -generator)")
		fs.StringVar(&spec.Task, "task", "", "regression or classification (CSV sources)")
		fs.StringVar(&spec.Target, "target", "", "label column name (CSV sources)")
		fs.StringVar(&spec.Model, "model", "", "linear-regression, logistic-regression or auto (default: task default)")
		fs.IntVar(&spec.Rows, "rows", 0, "generated dataset size (generator sources)")
		fs.IntVar(&spec.Grid, "grid", 0, "offered quality grid size")
		fs.Int64Var(&spec.Seed, "seed", 0, "seed for the generated data, the split, model selection and the sale noise")
		fs.Float64Var(&spec.ValueScale, "value-scale", 0, "seller research: buyers value an error-e model at scale/(1+e)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if spec.ID == "" {
			return fmt.Errorf("list-dataset: -id is required")
		}
		req := server.ListDatasetRequest{Spec: spec}
		if *csvPath != "" {
			data, err := os.ReadFile(*csvPath)
			if err != nil {
				return fmt.Errorf("list-dataset: %w", err)
			}
			req.CSV = true
			req.Data = string(data)
		}
		d, err := client.ListDataset(ctx, req)
		if err != nil {
			return err
		}
		fmt.Printf("listed %s (%s)\n  offerings: %v\n", d.Spec.ID, d.Spec.Source(), d.Offerings)
		return nil

	case "delist-dataset":
		fs := flag.NewFlagSet("delist-dataset", flag.ContinueOnError)
		id := fs.String("id", "", "dataset ID (required)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("delist-dataset: -id is required")
		}
		st, err := client.DelistDataset(ctx, *id)
		if err != nil {
			return err
		}
		fmt.Printf("delisted %s — final statement:\n", *id)
		return st.Write(os.Stdout)

	default:
		return fmt.Errorf("unknown command %q (want menu, curve, buy, stats, statement, datasets, list-dataset, delist-dataset or journal)", cmd)
	}
}
