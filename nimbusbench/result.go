package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported number with its unit and, for timings and
// ratios, the number of samples behind it. Source says where the samples
// came from when a workload measures the metric outside its own phase.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	TailAt float64 `json:"tail_at,omitempty"`
	Source string  `json:"source,omitempty"`
}

// Fingerprint identifies the host and the run configuration. Results
// whose nproc differs are not compared.
type Fingerprint struct {
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	GitSHA      string         `json:"git_sha"`
	DaemonFlags []string       `json:"daemon_flags"`
	SyncPolicy  string         `json:"sync_policy"`
	Conns       map[string]int `json:"conns"`
}

// Result is the full record of one run; the last stdout line is its
// machine-readable summary.
type Result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint Fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	Metrics     map[string]Metric `json:"metrics"`
}

func newResult(workload string, seed int64, seconds int, trace bool, root string) *Result {
	return &Result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Correct: true,
		Metrics: map[string]Metric{},
		Fingerprint: Fingerprint{
			NProc:       runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			GitSHA:      gitSHA(root),
			DaemonFlags: append([]string{"-data-dir", "<run dir>"}, daemonFlags(seed)...),
			SyncPolicy:  syncPolicy,
			Conns:       map[string]int{},
		},
	}
}

func (r *Result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// fail records a check failure: the run is wrong, whatever its speed.
func (r *Result) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// count tallies operations; failed ones are remembered too.
func (r *Result) count(recs []rec) {
	for _, x := range recs {
		r.Attempted++
		if x.Err == nil {
			continue
		}
		if errors.Is(x.Err, errCheck) {
			r.fail(x.Err)
			continue
		}
		r.Failed++
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, x.Err.Error())
		}
	}
}

// summary is the machine-readable last line: exactly correct, attempted,
// failed and the metrics of the requested kind with value and unit.
func (r *Result) summary(names []string) ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]vu{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = vu{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// table prints every metric with its unit and sample count.
func (r *Result) table(w io.Writer, names []string) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  correct %v  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	fp := r.Fingerprint
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d %s git=%s  daemon %s  sync=%s  conns=%v\n",
		fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GitSHA, strings.Join(fp.DaemonFlags, " "), fp.SyncPolicy, fp.Conns)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-32s %14.6g %-8s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.TailAt > 0 {
			line += fmt.Sprintf(" at=p%.4g", m.TailAt)
		}
		if m.Source != "" {
			line += " from " + m.Source
		}
		fmt.Fprintln(w, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
}

func (r *Result) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// errNProc refuses a comparison across hosts of different core counts:
// the load generator and the daemon share the cores, so every number
// depends on them.
var errNProc = errors.New("results ran on different nproc; refusing to compare")

// compare prints old → new for every metric both results carry.
func compare(w io.Writer, old, cur *Result) error {
	if old.Fingerprint.NProc != cur.Fingerprint.NProc {
		return fmt.Errorf("%w (%d vs %d)", errNProc, old.Fingerprint.NProc, cur.Fingerprint.NProc)
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		if _, ok := old.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "compare %s seed %d (git %s) -> %s seed %d (git %s)\n",
		old.Workload, old.Seed, old.Fingerprint.GitSHA, cur.Workload, cur.Seed, cur.Fingerprint.GitSHA)
	for _, n := range names {
		a, b := old.Metrics[n], cur.Metrics[n]
		delta := 0.0
		if a.Value != 0 {
			delta = 100 * (b.Value - a.Value) / a.Value
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %-14.6g %-8s %+7.1f%%\n", n, a.Value, b.Value, b.Unit, delta)
	}
	return nil
}

// gitSHA reads HEAD from the checkout's .git without running git; a
// checkout that is not a repository reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// setWindowed records the p50 (and, when tail is set, the tail) of a
// windowed summary, scaled from seconds into the metric's unit.
func (r *Result) setWindowed(p50, tail, unit string, scale float64, w Windowed, source string) {
	src := fmt.Sprintf("%s, calmer %d of %d windows", source, w.Windows, phaseWindows)
	mid := src
	if w.Shapes > 1 {
		mid += fmt.Sprintf(", geometric mean over %d shapes", w.Shapes)
	}
	r.Metrics[p50] = Metric{Value: w.P50 * scale, Unit: unit, N: w.N, Source: mid}
	if tail != "" {
		r.Metrics[tail] = Metric{Value: w.Tail * scale, Unit: unit, N: w.N, TailAt: w.TailAt, Source: src}
	}
}
