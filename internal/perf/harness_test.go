package perf

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// shortLoad is the CI-friendly harness shape: a small market and an exact
// request count so the test is bounded by work, not wall clock.
func shortLoad() LoadOptions {
	return LoadOptions{
		Concurrency: 4,
		Count:       60,
		Seed:        42,
		Rows:        150,
		Grid:        10,
		Samples:     30,
	}
}

// TestRunLoadInProcess drives the full in-process harness — a one-market
// registry journaled under a temp root, middleware stack, loadgen — and
// checks the load section is complete from both vantage points.
func TestRunLoadInProcess(t *testing.T) {
	res, err := RunLoad(context.Background(), shortLoad())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.Errors != 0 {
		t.Errorf("requests=%d errors=%d, want 60 and 0", res.Requests, res.Errors)
	}
	if res.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", res.QPS)
	}
	if res.Revenue <= 0 {
		t.Errorf("revenue = %v, want > 0", res.Revenue)
	}
	if res.Client.P50 <= 0 || res.Client.P95 < res.Client.P50 || res.Client.P99 < res.Client.P95 {
		t.Errorf("client percentiles out of order: %+v", res.Client)
	}
	if res.Server == nil {
		t.Fatal("in-process run missing the server-side histogram view")
	}
	if res.Server.P50 <= 0 || res.Server.P95 < res.Server.P50 || res.Server.P99 < res.Server.P95 {
		t.Errorf("server percentiles out of order: %+v", res.Server)
	}
	if err := res.validate(); err != nil {
		t.Errorf("harness load result invalid: %v", err)
	}
}

// TestRunMultiLoadInProcess spreads the harness over three markets —
// round-robin traffic across the tenant routes — and checks the point is
// complete and correctly stamped.
func TestRunMultiLoadInProcess(t *testing.T) {
	opts := shortLoad()
	opts.Markets = 3
	res, err := RunLoad(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.Errors != 0 {
		t.Errorf("requests=%d errors=%d, want 60 and 0", res.Requests, res.Errors)
	}
	if res.Markets != 3 || res.Offerings != 3 {
		t.Errorf("markets=%d offerings=%d, want 3 and 3", res.Markets, res.Offerings)
	}
	if res.Server == nil || res.Server.P50 <= 0 {
		t.Fatalf("tenant buy route histogram not read back: %+v", res.Server)
	}
	if err := res.validate(); err != nil {
		t.Errorf("multi-market load result invalid: %v", err)
	}
}

// TestRunRecordsMultiLoadSection checks the trajectory pipeline stores the
// second load pass as multi_load and that the point survives a JSON
// round-trip through the schema gate.
func TestRunRecordsMultiLoadSection(t *testing.T) {
	rep, err := Run(context.Background(), RunOptions{
		Load:        shortLoad(),
		Markets:     2,
		Micro:       MicroOptions{BenchTime: 2 * time.Millisecond},
		GeneratedBy: "perf test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MultiLoad == nil || rep.MultiLoad.Markets != 2 {
		t.Fatalf("multi_load section missing or unstamped: %+v", rep.MultiLoad)
	}
	if rep.Load.Markets != 1 {
		t.Errorf("single-market load stamped markets=%d, want 1", rep.Load.Markets)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report with multi_load fails the schema gate: %v", err)
	}
	// Self-compare covers the multi_load deltas too.
	c := Compare(rep, rep, CompareOptions{})
	if c.HasRegression() {
		t.Errorf("self-compare found regressions: %+v", c.Regressions())
	}
	var multiDeltas int
	for _, d := range c.Deltas {
		if len(d.Metric) > 10 && d.Metric[:10] == "multi_load" {
			multiDeltas++
		}
	}
	if multiDeltas == 0 {
		t.Error("Compare produced no multi_load deltas for two reports that both carry the section")
	}
}

// TestRunMicroShort runs the kernel suite at a tiny benchtime and checks
// every kernel reports positive measurements.
func TestRunMicroShort(t *testing.T) {
	micro, err := RunMicro(MicroOptions{BenchTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != len(Microbenches()) {
		t.Fatalf("got %d results, want %d", len(micro), len(Microbenches()))
	}
	for _, m := range micro {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s: ns/op %v iterations %d, want positive", m.Name, m.NsPerOp, m.Iterations)
		}
		if m.AllocsPerOp < 0 || m.BytesPerOp < 0 {
			t.Errorf("%s: negative alloc stats", m.Name)
		}
	}
}

// TestRunFullTrajectoryPoint records a complete short-mode point and
// checks it passes the schema gate and carries the fingerprint — the exact
// pipeline the CI perf-smoke job and BENCH_<n>.json production run.
func TestRunFullTrajectoryPoint(t *testing.T) {
	rep, err := Run(context.Background(), RunOptions{
		Load:        shortLoad(),
		Micro:       MicroOptions{BenchTime: 2 * time.Millisecond},
		Bench:       99,
		GeneratedBy: "perf test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("harness produced an invalid report: %v", err)
	}
	if rep.Bench != 99 || rep.GeneratedBy != "perf test" {
		t.Errorf("provenance not stamped: %+v", rep)
	}
	if rep.Env.GOOS != runtime.GOOS || rep.Env.NumCPU != runtime.NumCPU() {
		t.Errorf("fingerprint mismatch: %+v", rep.Env)
	}
	if rep.Env.GitSHA == "" {
		t.Error("git SHA not resolved inside the repository")
	}
	// A freshly recorded point must self-compare clean — the trajectory's
	// base invariant.
	c := Compare(rep, rep, CompareOptions{})
	if c.HasRegression() {
		t.Errorf("self-compare of a fresh report found regressions: %+v", c.Regressions())
	}
}

// TestRunUsesMicroRunner checks the kernel-sweep override hook: when a
// runner is supplied (cmd/nimbus-bench re-execs into a child process),
// Run must take the sweep from it, options passed through intact.
func TestRunUsesMicroRunner(t *testing.T) {
	canned := []MicroResult{{Name: "opt/fake/n=1", NsPerOp: 1, AllocsPerOp: 0, Iterations: 1}}
	var gotOpts MicroOptions
	rep, err := Run(context.Background(), RunOptions{
		Load:  shortLoad(),
		Micro: MicroOptions{BenchTime: 7 * time.Millisecond},
		MicroRunner: func(mo MicroOptions) ([]MicroResult, error) {
			gotOpts = mo
			return canned, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotOpts.BenchTime != 7*time.Millisecond {
		t.Errorf("runner got options %+v, want the configured benchtime", gotOpts)
	}
	if len(rep.Micro) != 1 || rep.Micro[0].Name != "opt/fake/n=1" {
		t.Errorf("micro section %+v, want the runner's result", rep.Micro)
	}
}
