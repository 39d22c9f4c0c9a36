// Package telemetry is a dependency-free, lock-light metrics registry for
// the Nimbus broker's hot paths. It provides atomically-updated counters,
// gauges and fixed-bucket latency histograms (with quantile estimation),
// Prometheus-text-format exposition, and a structured snapshot API for
// tests, CLIs and the JSON metrics endpoint.
//
// Design constraints, in order:
//
//  1. The write path (Inc/Add/Observe) must be safe for heavy concurrent
//     use and must never block on the read path: all values are single
//     atomic words, and metric handles are resolved through a sync.Map so
//     steady-state lookups are lock-free.
//  2. A nil *Registry is a valid no-op registry: every constructor returns
//     a nil handle and every handle method tolerates a nil receiver, so
//     instrumented code needs no "is telemetry on?" branches and the
//     overhead of disabled telemetry is a single pointer test.
//  3. No dependencies beyond the standard library.
//
// Series are identified Prometheus-style by a base name plus optional
// label pairs; the same (name, labels) always resolves to the same handle:
//
//	reg := telemetry.NewRegistry()
//	sales := reg.Counter("nimbus_purchases_total", "offering", "CASP/linreg")
//	sales.Inc()
//	reg.WritePrometheus(os.Stdout)
package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// Registry holds a set of named metrics. The zero value is not usable; use
// NewRegistry. A nil *Registry is a valid no-op registry.
type Registry struct {
	metrics sync.Map // series key -> *Counter | *FloatCounter | *Gauge | *gaugeFunc | *Histogram

	mu       sync.Mutex
	help     map[string]string // guarded by mu; base name -> HELP text
	onScrape []func()          // guarded by mu; collectors run before every exposition/snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{help: make(map[string]string)}
}

// Help sets the Prometheus HELP text for a base metric name.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// OnScrape registers a collector invoked (in registration order) before
// every WritePrometheus and Snapshot, so gauges derived from expensive
// sources — runtime.ReadMemStats, pool sizes — refresh once per scrape
// instead of once per gauge.
func (r *Registry) OnScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// collect runs the scrape hooks.
func (r *Registry) collect() {
	r.mu.Lock()
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Counter returns the integer counter for (name, labels), creating it on
// first use. Labels are alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, name, labels, func() *Counter { return &Counter{} })
}

// FloatCounter returns the float counter (monotone sum, e.g. revenue) for
// (name, labels), creating it on first use.
func (r *Registry) FloatCounter(name string, labels ...string) *FloatCounter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, name, labels, func() *FloatCounter { return &FloatCounter{} })
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, name, labels, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers a gauge whose value is fn() at scrape time. It
// replaces any previous func registered under the same series.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.metrics.Store(seriesKey(name, labels), &gaugeFunc{fn: fn})
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given bucket upper bounds (nil means DefBuckets). Bounds are
// fixed at creation; later calls for the same series ignore the argument.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, name, labels, func() *Histogram { return newHistogram(buckets) })
}

// getOrCreate resolves the series key to a handle of type M, creating one
// with mk on first use. A series re-requested as a different metric kind is
// a programming error and panics.
func getOrCreate[M any](r *Registry, name string, labels []string, mk func() M) M {
	key := seriesKey(name, labels)
	if v, ok := r.metrics.Load(key); ok {
		return assertKind[M](key, v)
	}
	v, _ := r.metrics.LoadOrStore(key, mk())
	return assertKind[M](key, v)
}

func assertKind[M any](key string, v any) M {
	m, ok := v.(M)
	if !ok {
		panic(fmt.Sprintf("telemetry: series %s already registered as %T", key, v))
	}
	return m
}

// seriesKey renders the canonical series identity: the base name plus a
// sorted, escaped label block, e.g. `http_requests_total{route="/buy"}`.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %s: %v", name, labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	// Insertion sort: label lists are one or two pairs, and sort.Slice
	// would box the slice and allocate its less-closure on every lookup.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(pairs))
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		escapeLabel(&b, p.v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel writes v with Prometheus label escaping (backslash, quote,
// newline).
func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// baseName returns the series key's metric name without the label block.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// labelBlock returns the series key's label block including braces, or "".
func labelBlock(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[i:]
	}
	return ""
}
