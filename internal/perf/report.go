// Package perf is Nimbus's benchmark-orchestration subsystem: it runs the
// serving stack and the core solver kernels under measurement and emits a
// machine-readable, schema-versioned report — the BENCH_<n>.json files at
// the repository root form the recorded perf trajectory, one point per PR,
// and Compare diffs two points with a noise threshold so "measurably
// faster" is a checkable claim instead of a commit-message adjective.
//
// A report has three parts:
//
//   - env: the hardware/toolchain fingerprint the numbers were taken on
//     (GOOS/GOARCH, CPU count, go version, git SHA) — numbers from
//     different environments compare as weather, not signal;
//   - load: the closed-loop buy-path measurement from internal/loadgen
//     driven against an in-process broker (seeded market, write-ahead
//     journal in a temp dir), with client-side exact percentiles and the
//     server-side estimates read back from the telemetry histogram;
//   - micro: testing.Benchmark results for the solver kernels on the
//     pricing path (BV dynamic program, MILP brute force, PAV/Dykstra
//     interpolation, Gaussian noise draws), recording ns/op and allocs/op.
package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"nimbus/internal/loadgen"
)

// SchemaVersion is the report schema this package reads and writes.
// Readers refuse other versions: a silent cross-version comparison would
// quietly diff incompatible metrics.
const SchemaVersion = 1

// Report is one recorded point of the perf trajectory.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Bench is the trajectory point number — BENCH_<n>.json carries n.
	// Zero for ad-hoc runs.
	Bench int `json:"bench,omitempty"`
	// GeneratedBy records the producing command line, for provenance.
	GeneratedBy string      `json:"generated_by,omitempty"`
	Env         Env         `json:"env"`
	Load        *LoadResult `json:"load,omitempty"`
	// MultiLoad is the multi-tenant buy-path measurement: the same harness
	// shape as Load but spread round-robin across several registry markets,
	// each with its own journal. Absent on points recorded before the
	// registry existed; Compare diffs it only when both points carry it.
	MultiLoad *LoadResult   `json:"multi_load,omitempty"`
	Micro     []MicroResult `json:"micro,omitempty"`
}

// Env is the environment fingerprint stamped on every report.
type Env struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha,omitempty"`
	// UnixTime is the recording time (seconds since epoch). Informational:
	// Compare never looks at it.
	UnixTime int64 `json:"unix_time,omitempty"`
}

// LoadResult is the buy-path measurement: a closed-loop loadgen run's
// throughput plus latency percentiles from both vantage points.
type LoadResult struct {
	Concurrency int   `json:"concurrency"`
	Seed        int64 `json:"seed"`
	// Offerings and JournalSync record the harness profile the point was
	// measured under (absent on points recorded before they existed).
	// Informational: Compare never looks at them, but a human diffing two
	// points should know when the profiles differ.
	Offerings   int    `json:"offerings,omitempty"`
	JournalSync string `json:"journal_sync,omitempty"`
	// Markets records how many tenant markets the traffic was spread
	// across (0 or absent = the untenanted routes, which standalone
	// nimbus-load runs and the committed points up to BENCH_9 drove).
	Markets        int     `json:"markets,omitempty"`
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	QPS            float64 `json:"qps"`
	Revenue        float64 `json:"revenue"`
	// Client holds exact percentiles over every request's round-trip time,
	// measured by the load generator.
	Client LatencySummary `json:"client_latency_seconds"`
	// Server holds the buy route's latency as estimated by the serving
	// stack's own telemetry histogram — what a production scrape would
	// report. Absent when the broker is remote (standalone nimbus-load
	// runs) because the generator cannot claim the server's registry.
	Server *LatencySummary `json:"server_latency_seconds,omitempty"`
}

// LatencySummary is one latency distribution in seconds.
type LatencySummary struct {
	Min  float64 `json:"min,omitempty"`
	Mean float64 `json:"mean,omitempty"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max,omitempty"`
}

// MicroResult is one solver microbenchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// LoadResultFrom converts a loadgen report into the schema's load section.
// Standalone nimbus-load runs use it too, so every load number in the
// project — recorded trajectory or ad-hoc run — speaks the same schema.
func LoadResultFrom(rep loadgen.Report, cfg loadgen.Config) LoadResult {
	return LoadResult{
		Concurrency:    cfg.Concurrency,
		Seed:           cfg.Seed,
		Markets:        rep.Markets,
		Requests:       rep.Requests,
		Errors:         rep.Errors,
		ElapsedSeconds: rep.Elapsed,
		QPS:            rep.QPS,
		Revenue:        rep.Revenue,
		Client: LatencySummary{
			Min:  rep.Min,
			Mean: rep.Mean,
			P50:  rep.P50,
			P95:  rep.P95,
			P99:  rep.P99,
			Max:  rep.Max,
		},
	}
}

// Validate checks a report is structurally sound: right schema version,
// complete fingerprint, at least one measurement, and internally
// consistent distributions. It is the schema gate the CI smoke job and
// the committed BENCH_<n>.json tests run.
func (r *Report) Validate() error {
	if r == nil {
		return errors.New("nil report")
	}
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("schema_version %d, this build reads %d", r.SchemaVersion, SchemaVersion)
	}
	if r.Env.GOOS == "" || r.Env.GOARCH == "" || r.Env.GoVersion == "" {
		return errors.New("env fingerprint incomplete: goos, goarch and go_version are required")
	}
	if r.Env.NumCPU <= 0 {
		return fmt.Errorf("env num_cpu %d must be positive", r.Env.NumCPU)
	}
	if r.Load == nil && r.MultiLoad == nil && len(r.Micro) == 0 {
		return errors.New("report has neither a load section nor micro results")
	}
	if r.Load != nil {
		if err := r.Load.validate(); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	if r.MultiLoad != nil {
		if err := r.MultiLoad.validate(); err != nil {
			return fmt.Errorf("multi_load: %w", err)
		}
		if r.MultiLoad.Markets < 2 {
			return fmt.Errorf("multi_load: markets %d must be at least 2", r.MultiLoad.Markets)
		}
	}
	seen := make(map[string]bool, len(r.Micro))
	for i, m := range r.Micro {
		if m.Name == "" {
			return fmt.Errorf("micro[%d]: empty name", i)
		}
		if seen[m.Name] {
			return fmt.Errorf("micro: duplicate name %q", m.Name)
		}
		seen[m.Name] = true
		if m.NsPerOp <= 0 {
			return fmt.Errorf("micro %q: ns_per_op %v must be positive", m.Name, m.NsPerOp)
		}
		if m.Iterations <= 0 {
			return fmt.Errorf("micro %q: iterations %d must be positive", m.Name, m.Iterations)
		}
		if m.AllocsPerOp < 0 || m.BytesPerOp < 0 {
			return fmt.Errorf("micro %q: negative allocation stats", m.Name)
		}
	}
	return nil
}

func (l *LoadResult) validate() error {
	if l.Requests <= 0 {
		return fmt.Errorf("requests %d must be positive", l.Requests)
	}
	if l.Errors < 0 {
		return fmt.Errorf("errors %d must be non-negative", l.Errors)
	}
	if l.QPS <= 0 {
		return fmt.Errorf("qps %v must be positive", l.QPS)
	}
	if err := l.Client.validate(); err != nil {
		return fmt.Errorf("client latency: %w", err)
	}
	if l.Server != nil {
		if err := l.Server.validate(); err != nil {
			return fmt.Errorf("server latency: %w", err)
		}
	}
	return nil
}

func (s *LatencySummary) validate() error {
	if s.P50 <= 0 {
		return fmt.Errorf("p50 %v must be positive", s.P50)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		return fmt.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	return nil
}

// WriteFile writes the report as indented JSON with a trailing newline —
// the exact bytes committed as BENCH_<n>.json, so diffs stay reviewable.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
