// Command nimbus-load drives a running Nimbus broker with synthetic buyer
// traffic: N concurrent closed-loop buyers mixing the paper's three purchase
// options (buy at quality, buy under an error budget, buy under a price
// budget) across every (offering, loss) curve on the menu. It reports
// throughput, error counts, and exact latency percentiles, so a deployment
// can be sized — and the /metrics series sanity-checked — before real buyers
// arrive. The traffic core lives in internal/loadgen.
//
// Usage:
//
//	nimbus-load -c 32 -duration 10s http://localhost:8080
//	nimbus-load -n 500 -format json http://localhost:8080
//	nimbus-load -markets CASP,SUSY -n 500 http://localhost:8080
//
// Against a multi-tenant daemon (nimbusd -data-dir), -markets spreads the
// buyers round-robin (from seeded offsets) across the named dataset
// markets' tenant-scoped routes; the per-market request counts land in the
// report.
//
// Budgets are derived from the live price–error curves (a random curve
// point's error or price, inflated by up to 50%), so every generated request
// is satisfiable, and the default -rate paces the aggregate request stream
// just under nimbusd's default per-client limit (50 req/s): a default run
// against a default broker finishes with zero non-2xx responses. Pass
// -rate 0 to uncork the buyers and probe the throttle path instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"nimbus/internal/loadgen"
	"nimbus/internal/server"
)

// options collects the CLI knobs around the loadgen core.
type options struct {
	loadgen.Config
	BaseURL string
	Timeout time.Duration
	Format  string // text or json (the plain loadgen report)
}

func main() {
	var opt options
	flag.IntVar(&opt.Concurrency, "c", 8, "concurrent buyers")
	flag.DurationVar(&opt.Duration, "duration", 10*time.Second, "run length (ignored when -n is set)")
	flag.IntVar(&opt.Count, "n", 0, "total request count (0 = run for -duration)")
	flag.Int64Var(&opt.Seed, "seed", 1, "base seed for the replayable traffic mix (buyer i draws from an rng stream seeded with seed+i)")
	flag.StringVar(&opt.Format, "format", "text", "report format: text or json")
	flag.DurationVar(&opt.Timeout, "timeout", 10*time.Second, "per-request timeout")
	flag.Float64Var(&opt.Rate, "rate", 40, "aggregate request rate cap in req/s (0 = closed-loop, as fast as responses return)")
	markets := flag.String("markets", "", "comma-separated dataset IDs: spread traffic round-robin across these tenant markets (empty = the untenanted routes, which serve every market)")
	flag.Parse()
	if *markets != "" {
		opt.Markets = splitMarkets(*markets)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nimbus-load [flags] <base-url>")
		flag.Usage()
		os.Exit(2)
	}
	opt.BaseURL = flag.Arg(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "nimbus-load:", err)
		os.Exit(1)
	}
}

// run executes the load test and writes the report. It is the testable
// core: main only parses flags around it.
func run(ctx context.Context, w io.Writer, opt options) error {
	if opt.Format != "text" && opt.Format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", opt.Format)
	}
	httpClient := &http.Client{
		Timeout:   opt.Timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: opt.Concurrency},
	}
	client := &server.Client{BaseURL: opt.BaseURL, HTTPClient: httpClient}
	rep, err := loadgen.Run(ctx, client, opt.Config)
	if err != nil {
		return err
	}
	return writeReport(w, opt.Format, rep)
}

func writeReport(w io.Writer, format string, rep loadgen.Report) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "requests   %d (%.1f/s over %.2fs)\n", rep.Requests, rep.QPS, rep.Elapsed)
	fmt.Fprintf(w, "errors     %d (%d non-2xx)\n", rep.Errors, rep.NonOK)
	fmt.Fprintf(w, "revenue    %.2f\n", rep.Revenue)
	fmt.Fprintf(w, "latency    min %s  mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
		ms(rep.Min), ms(rep.Mean), ms(rep.P50), ms(rep.P95), ms(rep.P99), ms(rep.Max))
	opts := make([]string, 0, len(rep.ByOption))
	for k := range rep.ByOption {
		opts = append(opts, k)
	}
	sort.Strings(opts)
	for _, k := range opts {
		fmt.Fprintf(w, "  %-13s %d\n", k, rep.ByOption[k])
	}
	if rep.Markets > 0 {
		fmt.Fprintf(w, "markets    %d\n", rep.Markets)
		ids := make([]string, 0, len(rep.ByMarket))
		for id := range rep.ByMarket {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "  %-13s %d\n", id, rep.ByMarket[id])
		}
	}
	return nil
}

// splitMarkets parses the -markets flag: comma-separated dataset IDs,
// whitespace-tolerant, blanks dropped (Config.Validate catches the rest).
func splitMarkets(s string) []string {
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

func ms(seconds float64) string {
	return fmt.Sprintf("%.2fms", seconds*1e3)
}
