// The -perf mode surfaces internal/perf, the benchmark-orchestration
// subsystem behind the BENCH_<n>.json trajectory:
//
//	nimbus-bench -perf run -bench 6 -out BENCH_6.json   # record a point
//	nimbus-bench -perf run -short -out smoke.json       # CI smoke shape
//	nimbus-bench -perf compare old.json new.json        # gate on regressions
//	nimbus-bench -perf validate smoke.json              # schema check only
//	nimbus-bench -perf micro                            # kernel sweep only, JSON
//
// run re-execs itself as `-perf micro` for the kernel sweep, so kernels
// are always timed in a pristine child process rather than after the
// load phases have fragmented the allocator.
//
// compare exits 0 when every metric is within the noise threshold (or
// improved), 1 when any metric regressed, and 2 on usage or I/O errors —
// so a CI step can gate on the exit code alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"time"

	"nimbus/internal/perf"
)

// perfMain dispatches the -perf subcommands and returns the process exit
// code.
func perfMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: nimbus-bench -perf <run|compare|validate> [flags]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch cmd, rest := args[0], args[1:]; cmd {
	case "run":
		return perfRun(ctx, rest, stdout, stderr)
	case "micro":
		return perfMicro(rest, stdout, stderr)
	case "compare":
		return perfCompare(rest, stdout, stderr)
	case "validate":
		return perfValidate(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "nimbus-bench -perf: unknown subcommand %q (want run, micro, compare or validate)\n", cmd)
		return 2
	}
}

// perfRun records one trajectory point.
func perfRun(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nimbus-bench -perf run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "write the report to this file (default stdout)")
		benchNum = fs.Int("bench", 0, "trajectory point number stamped on the report (the n in BENCH_<n>.json)")
		short    = fs.Bool("short", false, "smoke shape: small market, exact request count, millisecond benchtimes — proves the pipeline, not the hardware")
		c        = fs.Int("c", 8, "concurrent buyers for the load phase")
		duration = fs.Duration("duration", 5*time.Second, "load phase length (ignored when -n is set)")
		count    = fs.Int("n", 0, "exact load request count (0 = run for -duration)")
		seed     = fs.Int64("seed", 42, "seed for the market build and the replayable traffic mix")
		markets  = fs.Int("markets", 0, "when > 1, also record a multi_load point: the same load profile spread across this many registry tenant markets")
		jsync    = fs.String("journal-sync", "always", "harness journal fsync policy: always, interval or never")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "nimbus-bench -perf run: unexpected arguments %v\n", fs.Args())
		return 2
	}
	opts := perf.RunOptions{
		Load: perf.LoadOptions{
			Concurrency: *c,
			Duration:    *duration,
			Count:       *count,
			Seed:        *seed,
			Sync:        *jsync,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(stderr, format+"\n", a...)
			},
		},
		Markets:     *markets,
		Bench:       *benchNum,
		GeneratedBy: "nimbus-bench -perf run",
	}
	if *short {
		opts.Load.Rows, opts.Load.Grid, opts.Load.Samples = 150, 10, 30
		if *count == 0 {
			opts.Load.Count, opts.Load.Duration = 60, 0
		}
		opts.Micro.BenchTime = 5 * time.Millisecond
	}
	opts.MicroRunner = func(mo perf.MicroOptions) ([]perf.MicroResult, error) {
		return microInChild(ctx, mo, stderr)
	}
	rep, err := perf.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf run:", err)
		return 2
	}
	if *out == "" {
		data, err := reportJSON(rep)
		if err != nil {
			fmt.Fprintln(stderr, "nimbus-bench -perf run:", err)
			return 2
		}
		fmt.Fprint(stdout, data)
		return 0
	}
	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf run:", err)
		return 2
	}
	fmt.Fprintf(stderr, "perf: wrote %s (%d load requests, %d kernels)\n", *out, rep.Load.Requests, len(rep.Micro))
	return 0
}

// perfMicro runs the kernel sweep alone and emits the results as a JSON
// array. It is what `-perf run` re-execs so that kernels are timed in a
// pristine process: a sweep run in-process after the load phases measures
// the allocator state the load passes left behind — span fragmentation
// alone inflates the alloc-heavy kernels past the compare gate's noise
// band on a small box.
func perfMicro(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nimbus-bench -perf micro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchTime := fs.Duration("benchtime", 0, "per-kernel measurement time (0 = the testing package default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "nimbus-bench -perf micro: unexpected arguments %v\n", fs.Args())
		return 2
	}
	micro, err := perf.RunMicro(perf.MicroOptions{BenchTime: *benchTime})
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf micro:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(micro); err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf micro:", err)
		return 2
	}
	return 0
}

// microInChild re-execs this binary as `-perf micro` and decodes its
// stdout, giving the kernel sweep the same fresh-process conditions as a
// standalone `go test -bench` run. Falls back to the in-process sweep
// when the executable path is unavailable.
func microInChild(ctx context.Context, mo perf.MicroOptions, stderr io.Writer) ([]perf.MicroResult, error) {
	if flag.Lookup("test.v") != nil {
		// Under `go test` the current executable is the test binary,
		// which does not speak `-perf micro`; measure in-process.
		return perf.RunMicro(mo)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perf: cannot re-exec for kernel sweep (%v); measuring in-process\n", err)
		return perf.RunMicro(mo)
	}
	args := []string{"-perf", "micro"}
	if mo.BenchTime > 0 {
		args = append(args, "-benchtime", mo.BenchTime.String())
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("kernel-sweep child process: %w", err)
	}
	var micro []perf.MicroResult
	if err := json.Unmarshal(out.Bytes(), &micro); err != nil {
		return nil, fmt.Errorf("decoding kernel-sweep child output: %w", err)
	}
	return micro, nil
}

// reportJSON renders a report exactly as WriteFile would, for stdout.
func reportJSON(rep *perf.Report) (string, error) {
	tmp, err := os.CreateTemp("", "nimbus-perf-*.json")
	if err != nil {
		return "", err
	}
	path := tmp.Name()
	defer func() {
		//lint:ignore no-dropped-error scratch file under the OS temp dir; nothing to do about a failed remove
		os.Remove(path)
	}()
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := rep.WriteFile(path); err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

// perfCompare diffs two reports and gates on regressions.
func perfCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nimbus-bench -perf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold     = fs.Float64("threshold", perf.DefaultThreshold, "relative noise band for kernel metrics (ns/op, allocs/op)")
		loadThreshold = fs.Float64("load-threshold", perf.DefaultLoadThreshold, "relative noise band for load metrics (qps, latency percentiles)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: nimbus-bench -perf compare [flags] <old.json> <new.json>")
		return 2
	}
	oldR, err := perf.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf compare:", err)
		return 2
	}
	newR, err := perf.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-bench -perf compare:", err)
		return 2
	}
	c := perf.Compare(oldR, newR, perf.CompareOptions{
		Threshold:     *threshold,
		LoadThreshold: *loadThreshold,
	})
	c.WriteText(stdout)
	if c.HasRegression() {
		return 1
	}
	return 0
}

// perfValidate runs the schema gate over report files.
func perfValidate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nimbus-bench -perf validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: nimbus-bench -perf validate <report.json>...")
		return 2
	}
	code := 0
	for _, path := range fs.Args() {
		rep, err := perf.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "nimbus-bench -perf validate:", err)
			code = 2
			continue
		}
		fmt.Fprintf(stdout, "%s: valid (schema v%d", path, rep.SchemaVersion)
		if rep.Load != nil {
			fmt.Fprintf(stdout, ", %d load requests", rep.Load.Requests)
		}
		fmt.Fprintf(stdout, ", %d kernels)\n", len(rep.Micro))
	}
	return code
}
