package perf

import (
	"bytes"
	"strings"
	"testing"
)

// baseline builds a report pair-ready baseline with one load section and
// two kernels.
func baseline() *Report {
	r := goldenReport()
	r.Bench = 1
	return r
}

// deltaFor pulls one metric out of a comparison.
func deltaFor(t *testing.T, c *Comparison, metric string) MetricDelta {
	t.Helper()
	for _, d := range c.Deltas {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("metric %s not compared; have %v", metric, c.Deltas)
	return MetricDelta{}
}

// TestCompareSelfIsClean pins the acceptance criterion: a report compared
// against itself has zero regressions and every delta within noise.
func TestCompareSelfIsClean(t *testing.T) {
	r := baseline()
	c := Compare(r, r, CompareOptions{})
	if c.HasRegression() {
		t.Fatalf("self-compare found regressions: %+v", c.Regressions())
	}
	for _, d := range c.Deltas {
		if d.Verdict != VerdictWithinNoise || d.Delta != 0 {
			t.Errorf("%s: self-compare delta %v verdict %s, want 0 within-noise", d.Metric, d.Delta, d.Verdict)
		}
	}
	if len(c.OnlyOld) != 0 || len(c.OnlyNew) != 0 || len(c.EnvMismatch) != 0 {
		t.Errorf("self-compare reported asymmetries: %+v", c)
	}
}

// TestCompareVerdicts injects movements in every direction and checks the
// classification, including the orientation of higher-is-better metrics.
func TestCompareVerdicts(t *testing.T) {
	oldR, newR := baseline(), baseline()
	newR.Micro[0].NsPerOp *= 2.0  // kernel 2x slower: regression
	newR.Micro[1].NsPerOp *= 0.5  // kernel 2x faster: improvement
	newR.Micro[1].AllocsPerOp = 0 // fewer allocs: improvement
	newR.Load.QPS *= 0.5          // throughput halved: regression
	newR.Load.Client.P99 *= 1.05  // +5%: inside the 25% load band
	newR.Load.Server.P95 *= 3.0   // tail blowup: regression
	c := Compare(oldR, newR, CompareOptions{})

	for metric, want := range map[string]Verdict{
		"micro/opt/dp/n=100/ns_per_op":            VerdictRegression,
		"micro/noise/gaussian/d=90/ns_per_op":     VerdictImprovement,
		"micro/noise/gaussian/d=90/allocs_per_op": VerdictImprovement,
		"load/qps":        VerdictRegression,
		"load/client/p99": VerdictWithinNoise,
		"load/server/p95": VerdictRegression,
	} {
		if got := deltaFor(t, c, metric); got.Verdict != want {
			t.Errorf("%s: verdict %s (delta %+.3f), want %s", metric, got.Verdict, got.Delta, want)
		}
	}
	if !c.HasRegression() {
		t.Error("injected regressions not detected")
	}

	// QPS orientation: the drop must read as a positive (bad) delta.
	if d := deltaFor(t, c, "load/qps"); d.Delta <= 0 {
		t.Errorf("qps drop delta = %v, want positive (oriented to worse)", d.Delta)
	}
}

// TestCompareThresholdConfigurable checks the bands actually move.
func TestCompareThresholdConfigurable(t *testing.T) {
	oldR, newR := baseline(), baseline()
	newR.Micro[0].NsPerOp *= 1.15 // +15%
	if c := Compare(oldR, newR, CompareOptions{Threshold: 0.10}); !c.HasRegression() {
		t.Error("+15% not flagged under a 10% threshold")
	}
	if c := Compare(oldR, newR, CompareOptions{Threshold: 0.20}); c.HasRegression() {
		t.Error("+15% flagged under a 20% threshold")
	}
}

// TestCompareZeroBaselineAllocs pins the zero-anchor rule: allocations
// appearing on a previously allocation-free kernel is a regression, and
// staying at zero is clean.
func TestCompareZeroBaselineAllocs(t *testing.T) {
	oldR, newR := baseline(), baseline()
	oldR.Micro[1].AllocsPerOp = 0
	newR.Micro[1].AllocsPerOp = 0
	c := Compare(oldR, newR, CompareOptions{})
	if d := deltaFor(t, c, "micro/noise/gaussian/d=90/allocs_per_op"); d.Verdict != VerdictWithinNoise {
		t.Errorf("0 -> 0 allocs verdict %s, want within-noise", d.Verdict)
	}
	newR.Micro[1].AllocsPerOp = 3
	c = Compare(oldR, newR, CompareOptions{})
	if d := deltaFor(t, c, "micro/noise/gaussian/d=90/allocs_per_op"); d.Verdict != VerdictRegression {
		t.Errorf("0 -> 3 allocs verdict %s, want regression", d.Verdict)
	}
}

// TestCompareAsymmetricKernels checks renamed kernels surface on both
// sides instead of being silently skipped.
func TestCompareAsymmetricKernels(t *testing.T) {
	oldR, newR := baseline(), baseline()
	newR.Micro[1].Name = "noise/gaussian/d=128"
	c := Compare(oldR, newR, CompareOptions{})
	if len(c.OnlyOld) != 1 || c.OnlyOld[0] != "noise/gaussian/d=90" {
		t.Errorf("OnlyOld = %v", c.OnlyOld)
	}
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "noise/gaussian/d=128" {
		t.Errorf("OnlyNew = %v", c.OnlyNew)
	}
}

// TestCompareEnvMismatchWarns checks cross-environment comparisons carry
// the weather warning in both the struct and the text rendering.
func TestCompareEnvMismatchWarns(t *testing.T) {
	oldR, newR := baseline(), baseline()
	newR.Env.NumCPU = 128
	newR.Env.GoVersion = "go1.99"
	c := Compare(oldR, newR, CompareOptions{})
	if len(c.EnvMismatch) != 2 {
		t.Fatalf("EnvMismatch = %v, want 2 entries", c.EnvMismatch)
	}
	var buf bytes.Buffer
	c.WriteText(&buf)
	if !strings.Contains(buf.String(), "environment mismatch") {
		t.Errorf("text rendering missing env warning:\n%s", buf.String())
	}
}

// TestWriteTextTallies smoke-checks the human rendering.
func TestWriteTextTallies(t *testing.T) {
	oldR, newR := baseline(), baseline()
	newR.Micro[0].NsPerOp *= 2
	var buf bytes.Buffer
	Compare(oldR, newR, CompareOptions{}).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"regression(s)", "within noise", "micro/opt/dp/n=100/ns_per_op"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
