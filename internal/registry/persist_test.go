package registry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
)

// listing is one tenant to list: a spec plus, for CSV sources, its data.
type listing struct {
	spec Spec
	csv  []byte
}

// curveTenants covers every shape of stored terms: a regression tenant
// (one loss), a classification tenant (two losses: the training loss and
// zero-one), a CSV-sourced tenant, and two "auto" tenants — one whose
// selection picks the SVM, and one that picks the second of the
// regression candidates, which shares its model name with the first.
func curveTenants() []listing {
	return []listing{
		{spec: cheapSpec("reg", 3)},
		{spec: Spec{ID: "cls", Generator: "Simulated2", Rows: 150, Grid: 8, Samples: 24, Seed: 5}},
		{spec: Spec{ID: "csv", CSV: true, Task: "regression", Target: "y", Grid: 8, Samples: 24, Seed: 11}, csv: testCSV(120)},
		{spec: Spec{ID: "auto-cls", Generator: "Simulated2", Model: "auto", Rows: 150, Grid: 8, Samples: 24, Seed: 9}},
		{spec: Spec{ID: "auto-reg", Generator: "CASP", Model: "auto", Rows: 150, Grid: 8, Samples: 24, Seed: 3}},
	}
}

// served is what a tenant's one offering serves: its menu row (name,
// dataset shape and expected revenue), the model and its h*, the
// price–error rows per loss and the pricing function's knots.
type served struct {
	name    string
	stats   dataset.Stats
	revenue float64
	model   ml.Model
	optimal []float64
	losses  []string
	rows    map[string][]pricing.PriceErrorPoint
	knots   []pricing.Point
}

func servedBy(t *testing.T, m *Market) served {
	t.Helper()
	o, err := m.Broker.Offering(m.Broker.Menu()[0])
	if err != nil {
		t.Fatal(err)
	}
	s := served{
		name:    o.Name,
		stats:   o.Pair.Stats(),
		revenue: o.ExpectedRevenue,
		model:   o.Model,
		optimal: o.Optimal,
		losses:  o.LossNames(),
		rows:    map[string][]pricing.PriceErrorPoint{},
		knots:   o.PriceFunc.Points(),
	}
	for _, loss := range s.losses {
		c, err := o.Curve(loss)
		if err != nil {
			t.Fatal(err)
		}
		s.rows[loss] = c.Points()
	}
	return s
}

// requireSameBits fails unless got serves exactly want, bit for bit.
func requireSameBits(t *testing.T, id string, got, want served) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.name != want.name || got.stats != want.stats || !same(got.revenue, want.revenue) {
		t.Fatalf("%s: menu row %s %v revenue %v, want %s %v revenue %v",
			id, got.name, got.stats, got.revenue, want.name, want.stats, want.revenue)
	}
	if !reflect.DeepEqual(got.model, want.model) {
		t.Fatalf("%s: model %#v, want %#v", id, got.model, want.model)
	}
	requireSameWeights(t, id, got.optimal, want.optimal)
	if strings.Join(got.losses, ",") != strings.Join(want.losses, ",") {
		t.Fatalf("%s: losses %v, want %v", id, got.losses, want.losses)
	}
	for _, loss := range want.losses {
		g, w := got.rows[loss], want.rows[loss]
		if len(g) != len(w) {
			t.Fatalf("%s/%s: %d curve points, want %d", id, loss, len(g), len(w))
		}
		for i := range w {
			if !same(g[i].X, w[i].X) || !same(g[i].Error, w[i].Error) || !same(g[i].Price, w[i].Price) {
				t.Fatalf("%s/%s point %d: %+v, want %+v", id, loss, i, g[i], w[i])
			}
		}
	}
	if len(got.knots) != len(want.knots) {
		t.Fatalf("%s: %d price knots, want %d", id, len(got.knots), len(want.knots))
	}
	for i := range want.knots {
		if !same(got.knots[i].X, want.knots[i].X) || !same(got.knots[i].Price, want.knots[i].Price) {
			t.Fatalf("%s: price knot %d %+v, want %+v", id, i, got.knots[i], want.knots[i])
		}
	}
}

// requireSameWeights fails unless got holds want's weights bit for bit.
func requireSameWeights(t *testing.T, id string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights in h*, want %d", id, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: h* weight %d is %v, want %v", id, i, got[i], want[i])
		}
	}
}

// listAndBuy lists every tenant, makes a few purchases on each, and
// returns what each serves.
func listAndBuy(t *testing.T, r *Registry, tenants []listing) map[string]served {
	t.Helper()
	out := map[string]served{}
	for _, l := range tenants {
		m, err := r.List(l.spec, l.csv)
		if err != nil {
			t.Fatal(err)
		}
		s := servedBy(t, m)
		for k := 0; k < 3; k++ {
			if _, err := m.Buy(m.Broker.Menu()[0], s.losses[k%len(s.losses)], "quality", float64(1+k)); err != nil {
				t.Fatal(err)
			}
		}
		out[l.spec.ID] = s
	}
	return out
}

// requireServes fails unless every tenant of r serves exactly want.
func requireServes(t *testing.T, r *Registry, want map[string]served) {
	t.Helper()
	for id, w := range want {
		m, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, id, servedBy(t, m), w)
	}
}

func readRawManifest(t *testing.T, root, id string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, id, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeRawManifest(t *testing.T, root, id string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, id, manifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoredCurvesSurviveRestartBitForBit checks that every tenant serves
// the identical curves and prices after a clean Close→Open and after an
// abandoned registry (no Close, as after kill -9) is reopened.
func TestStoredCurvesSurviveRestartBitForBit(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := listAndBuy(t, r, curveTenants())
	for id, s := range want {
		if got := len(readRawManifest(t, root, id).Curves); got != len(s.losses) {
			t.Fatalf("%s: manifest stores %d curves for %d losses", id, got, len(s.losses))
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireServes(t, r2, want)
	// Abandon r2 without Close, as kill -9 would.
	r3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	requireServes(t, r3, want)
}

// TestRecoveryServesStoredCurvesNotTheTransform tampers with each stored
// curve — scaled by a constant, which keeps it monotone and its prices
// arbitrage-free — and checks the reopened tenants serve the tampered
// values: recovery took the curves from the manifest and did not re-run
// the Monte-Carlo transform.
func TestRecoveryServesStoredCurvesNotTheTransform(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tenants := curveTenants()
	listAndBuy(t, r, tenants)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tampered := map[string][]float64{}
	for _, l := range tenants {
		id := l.spec.ID
		m := readRawManifest(t, root, id)
		errs := m.Curves[0].Errs
		for i := range errs {
			errs[i] *= 1.5
		}
		tampered[id+"/"+m.Curves[0].Loss] = errs
		writeRawManifest(t, root, id, m)
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, l := range tenants {
		m, err := r2.Get(l.spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		s := servedBy(t, m)
		loss := s.losses[0]
		want := tampered[l.spec.ID+"/"+loss]
		rows := s.rows[loss]
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", l.spec.ID, len(rows), len(want))
		}
		for i, row := range rows {
			if math.Float64bits(row.Error) != math.Float64bits(want[i]) {
				t.Fatalf("%s/%s point %d serves error %v, the tampered manifest says %v: recovery re-ran the transform",
					l.spec.ID, loss, i, row.Error, want[i])
			}
		}
	}
}

// TestManifestWithoutCurvesRecoversAndIsUpgraded recovers tenants whose
// manifests predate stored curves: they go through the full listing
// pipeline, serve the same h* and curves as before, and have their
// manifests rewritten with them.
func TestManifestWithoutCurvesRecoversAndIsUpgraded(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := listAndBuy(t, r, curveTenants())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for id := range want {
		// The old format: the bare normalized spec.
		writeRawManifest(t, root, id, readRawManifest(t, root, id).Spec)
		data, err := os.ReadFile(filepath.Join(root, id, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("curves")) {
			t.Fatalf("%s: old-format manifest still carries curves", id)
		}
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	requireServes(t, r2, want)
	for id, s := range want {
		m := readRawManifest(t, root, id)
		requireSameWeights(t, id+" upgraded manifest", m.Optimal, s.optimal)
		if len(m.Curves) != len(s.losses) {
			t.Fatalf("%s: upgraded manifest stores %d curves for %d losses", id, len(m.Curves), len(s.losses))
		}
		for i, c := range m.Curves {
			rows := s.rows[s.losses[i]]
			if c.Loss != s.losses[i] || len(c.Errs) != len(rows) {
				t.Fatalf("%s: upgraded curve %d is %s with %d points", id, i, c.Loss, len(c.Errs))
			}
			for k, e := range c.Errs {
				if math.Float64bits(e) != math.Float64bits(rows[k].Error) {
					t.Fatalf("%s/%s point %d stored %v, served %v", id, c.Loss, k, e, rows[k].Error)
				}
			}
		}
	}
}

// TestManifestWithoutOptimalRecoversAndIsUpgraded recovers tenants whose
// manifests store curves but not h* (written before h* was kept): each
// fits h* once — auto tenants select their model again — serves the same
// model, h*, curves and prices as before, and has its manifest rewritten
// with h* and the selected model. The next Open serves the same bits from
// the upgraded manifest and leaves it as it is.
func TestManifestWithoutOptimalRecoversAndIsUpgraded(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := listAndBuy(t, r, curveTenants())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for id := range want {
		m := readRawManifest(t, root, id)
		m.Optimal, m.Candidate = nil, nil
		writeRawManifest(t, root, id, m)
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireServes(t, r2, want)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	upgraded := map[string][]byte{}
	for id, s := range want {
		m := readRawManifest(t, root, id)
		requireSameWeights(t, id+" upgraded manifest", m.Optimal, s.optimal)
		if auto := strings.HasPrefix(id, "auto"); auto != (m.Candidate != nil) {
			t.Fatalf("%s: upgraded manifest's selected model %v", id, m.Candidate)
		}
		data, err := os.ReadFile(filepath.Join(root, id, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		upgraded[id] = data
	}

	r3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	requireServes(t, r3, want)
	for id, data := range upgraded {
		now, err := os.ReadFile(filepath.Join(root, id, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, data) {
			t.Fatalf("%s: Open rewrote a manifest that stores h*", id)
		}
	}
}

// TestAutoSelectModel checks that an "auto" tenant lists the winner of
// ml.SelectModel over ml.DefaultCandidates (3 folds, the task's reporting
// loss, seeded from the spec) and that its manifest records the index of
// that candidate.
func TestAutoSelectModel(t *testing.T) {
	root := t.TempDir()
	r, err := Open(Config{Root: root, Commission: 0.1, Sync: journal.SyncInterval, SyncEvery: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, l := range curveTenants() {
		if l.spec.Model != "auto" {
			continue
		}
		m, err := r.List(l.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := buildDataset(m.Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := dataset.NewPair(d, rng.New(m.Spec.Seed+1))
		if err != nil {
			t.Fatal(err)
		}
		var loss ml.Loss = ml.ZeroOneLoss{}
		if pair.Train.Task == dataset.Regression {
			loss = ml.SquaredLoss{}
		}
		candidates := ml.DefaultCandidates(pair.Train.Task)
		best, _, err := ml.SelectModel(pair.Train, candidates, loss, 3, rng.New(m.Spec.Seed+3))
		if err != nil {
			t.Fatal(err)
		}
		if got := servedBy(t, m).model; got != best {
			t.Errorf("%s lists %#v, selection picks %#v", m.ID, got, best)
		}
		switch i := readRawManifest(t, root, m.ID).Candidate; {
		case i == nil:
			t.Errorf("%s: manifest records no candidate", m.ID)
		case candidates[*i] != best:
			t.Errorf("%s: manifest records candidate %d, selection picks %#v", m.ID, *i, best)
		}
	}
}

// TestRecoveryServesStoredOptimalNotAFit hand-edits one weight of each
// stored h* and checks the reopened tenant serves it exactly as stored:
// recovery took h* from the manifest and did not refit it.
func TestRecoveryServesStoredOptimalNotAFit(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := listAndBuy(t, r, curveTenants())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for id := range want {
		m := readRawManifest(t, root, id)
		m.Optimal[0] += 0.375
		writeRawManifest(t, root, id, m)
		want[id] = served{model: want[id].model, optimal: m.Optimal}
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for id, w := range want {
		m, err := r2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got := servedBy(t, m)
		if !reflect.DeepEqual(got.model, w.model) {
			t.Fatalf("%s: model %#v, want %#v", id, got.model, w.model)
		}
		requireSameWeights(t, id+" (recovery refit h*?)", got.optimal, w.optimal)
	}
}

// TestDamagedStoredCurvesFailOpen checks that a stored curve that does not
// fit the tenant's spec, or is not a valid error curve, fails Open with an
// error naming the tenant and leaves no recovered tenant open.
func TestDamagedStoredCurvesFailOpen(t *testing.T) {
	cases := []struct {
		name   string
		damage func(m *manifest)
		text   func(data []byte) []byte // edits the encoded manifest instead
	}{
		{name: "grid length", damage: func(m *manifest) {
			c := &m.Curves[0]
			c.Xs, c.Errs = c.Xs[:len(c.Xs)-1], c.Errs[:len(c.Errs)-1]
		}},
		{name: "grid point", damage: func(m *manifest) { m.Curves[1].Xs[2] += 0.5 }},
		{name: "missing loss", damage: func(m *manifest) { m.Curves = m.Curves[:1] }},
		{name: "extra loss", damage: func(m *manifest) {
			extra := m.Curves[0]
			extra.Loss = "hinge"
			m.Curves = append(m.Curves, extra)
		}},
		{name: "wrong loss", damage: func(m *manifest) { m.Curves[1].Loss = "hinge" }},
		{name: "increasing errs", damage: func(m *manifest) {
			errs := m.Curves[0].Errs
			errs[len(errs)-1] = 2 * errs[0]
		}},
		{name: "NaN", text: func(data []byte) []byte { return replaceFirstValue(data, "errs", "NaN") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireDamageFailsOpen(t, Spec{ID: "zzz", Generator: "Simulated2", Rows: 150, Grid: 8, Samples: 24, Seed: 5}, tc.damage, tc.text)
		})
	}
}

// TestDamagedStoredOptimalFailsOpen checks that a stored h* that does not
// fit the tenant — the wrong length, a non-numeric or non-finite weight,
// no curves beside it, or a selected model that is not a candidate or
// belongs to no "auto" spec — fails Open with an error naming the tenant
// and leaves no recovered tenant open.
func TestDamagedStoredOptimalFailsOpen(t *testing.T) {
	cls := Spec{ID: "zzz", Generator: "Simulated2", Rows: 150, Grid: 8, Samples: 24, Seed: 5}
	auto := Spec{ID: "zzz", Generator: "Simulated2", Model: "auto", Rows: 150, Grid: 8, Samples: 24, Seed: 9}
	firstWeight := func(with string) func([]byte) []byte {
		return func(data []byte) []byte { return replaceFirstValue(data, "optimal", with) }
	}
	candidate := func(i int) func(m *manifest) { return func(m *manifest) { m.Candidate = &i } }
	cases := []struct {
		name   string
		spec   Spec
		damage func(m *manifest)
		text   func(data []byte) []byte // edits the encoded manifest instead
	}{
		{name: "short", spec: cls, damage: func(m *manifest) { m.Optimal = m.Optimal[:len(m.Optimal)-1] }},
		{name: "long", spec: cls, damage: func(m *manifest) { m.Optimal = append(m.Optimal, 0.5) }},
		{name: "empty", spec: cls, text: func(data []byte) []byte {
			i := bytes.Index(data, []byte(`"optimal": [`)) + len(`"optimal": [`)
			j := i + bytes.IndexByte(data[i:], ']')
			return append(append(append([]byte(nil), data[:i]...), ' '), data[j:]...)
		}},
		{name: "string", spec: cls, text: firstWeight(`"0.5"`)},
		{name: "NaN", spec: cls, text: firstWeight("NaN")},
		{name: "overflow", spec: cls, text: firstWeight("1e999")},
		{name: "without curves", spec: cls, damage: func(m *manifest) { m.Curves = nil }},
		{name: "candidate on a fixed model", spec: cls, damage: candidate(0)},
		{name: "auto without candidate", spec: auto, damage: func(m *manifest) { m.Candidate = nil }},
		{name: "candidate out of range", spec: auto, damage: candidate(3)},
		{name: "negative candidate", spec: auto, damage: candidate(-1)},
		{name: "candidate of another model", spec: auto, damage: candidate(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireDamageFailsOpen(t, tc.spec, tc.damage, tc.text)
		})
	}
}

// replaceFirstValue replaces the first element of the encoded manifest's
// array under key with the raw JSON text with.
func replaceFirstValue(data []byte, key, with string) []byte {
	open := `"` + key + `": [`
	i := bytes.Index(data, []byte(open)) + len(open)
	j := i + bytes.IndexByte(data[i:], ',')
	return append(append(append([]byte(nil), data[:i]...), with...), data[j:]...)
}

// requireDamageFailsOpen lists a healthy tenant "aaa" and the tenant
// zzz, applies damage (or text) to zzz's manifest, and requires Open to
// fail naming zzz and to leave no recovered tenant open.
func requireDamageFailsOpen(t *testing.T, zzz Spec, damage func(m *manifest), text func(data []byte) []byte) {
	t.Helper()
	root := t.TempDir()
	// "aaa" is recovered before "zzz" fails.
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncInterval, SyncEvery: time.Hour, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	listAndBuy(t, r, []listing{{spec: cheapSpec("aaa", 1)}, {spec: zzz}})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		m := readRawManifest(t, root, "zzz")
		damage(&m)
		writeRawManifest(t, root, "zzz", m)
	} else {
		path := filepath.Join(root, "zzz", manifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, text(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Telemetry = telemetry.NewRegistry()
	r2, err := Open(cfg)
	if err == nil {
		r2.Close()
		t.Fatal("Open accepted a damaged manifest")
	}
	if !strings.Contains(err.Error(), "zzz") {
		t.Fatalf("error does not name the failing tenant: %v", err)
	}
	requireJournalsClosed(t, cfg.Telemetry)
}

// v1SaleRecord encodes p as the JSON sale record (format v1) that builds
// before the binary record journaled, and that recovery must still read.
func v1SaleRecord(t *testing.T, p market.Purchase) []byte {
	t.Helper()
	rec, err := json.Marshal(struct {
		V        int             `json:"v"`
		Purchase market.Purchase `json:"purchase"`
	}{1, p})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestJSONJournalUpgradesMidSegment recovers a tenant whose journal an
// earlier build wrote in v1 JSON records and left uncompacted, as a
// SIGKILL leaves it. The sales made after reopening append v2 records to
// the same segment, and the mixed journal must recover the same ledger
// and books as a run that journaled v2 throughout.
func TestJSONJournalUpgradesMidSegment(t *testing.T) {
	const id, early, late = "mixed", 4, 3
	offering := offeringOf(id)
	// crashAndOpen recovers root; the caller abandons the previous
	// registry without Close, as a crash leaves it.
	crashAndOpen := func(root string) *Registry {
		t.Helper()
		r, err := Open(Config{Root: root, Commission: 0.1, Sync: journal.SyncAlways, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	buy := func(r *Registry, n int) (*market.Broker, []market.Purchase) {
		t.Helper()
		m, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		var sales []market.Purchase
		for k := 0; k < n; k++ {
			p, err := m.Buy(offering, "squared", "quality", float64(1+k%4))
			if err != nil {
				t.Fatal(err)
			}
			sales = append(sales, *p)
		}
		return m.Broker, sales
	}
	// journaled decodes a tenant's journal records with journal.Replay,
	// returning each record's format byte and the sale it holds.
	journaled := func(jdir string) ([]byte, []market.Purchase) {
		t.Helper()
		j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		var (
			formats []byte
			sales   []market.Purchase
		)
		if err := j.Replay(func(rec []byte) error {
			formats = append(formats, rec[0])
			p, err := market.UnmarshalSale(rec)
			sales = append(sales, p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return formats, sales
	}

	// The v2 run: list, sell, crash, recover, sell, crash, recover.
	v2Root := t.TempDir()
	r := crashAndOpen(v2Root)
	if _, err := r.List(cheapSpec(id, 31), nil); err != nil {
		t.Fatal(err)
	}
	_, earlySales := buy(r, early)
	buy(crashAndOpen(v2Root), late)
	pure := crashAndOpen(v2Root)
	defer pure.Close()

	// The upgrade run: the same listing, with the early sales journaled
	// as v1 records behind an empty snapshot.
	mixedRoot := t.TempDir()
	r = crashAndOpen(mixedRoot)
	if _, err := r.List(cheapSpec(id, 31), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(mixedRoot, id, journalDir)
	j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range earlySales {
		if err := j.Append(v1SaleRecord(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	buy(crashAndOpen(mixedRoot), late)

	// One segment holds both formats: the v1 records, then the v2 ones.
	segs, err := filepath.Glob(filepath.Join(jdir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one journal segment, got %v (%v)", segs, err)
	}
	formats, mixedSales := journaled(jdir)
	if want := strings.Repeat("{", early) + strings.Repeat("\x02", late); string(formats) != want {
		t.Fatalf("record formats %q, want %q", formats, want)
	}
	// Sale for sale, the mixed journal holds what the v2 run journaled.
	_, pureSales := journaled(filepath.Join(v2Root, id, journalDir))
	if len(pureSales) != early+late || !reflect.DeepEqual(mixedSales, pureSales) {
		t.Fatalf("mixed journal holds %d sales, the v2 run %d, or they differ", len(mixedSales), len(pureSales))
	}

	mixed := crashAndOpen(mixedRoot)
	defer mixed.Close()
	got, _ := buy(mixed, 0) // no sales: just the brokers
	want, _ := buy(pure, 0)
	if got.SaleCount() != early+late || want.SaleCount() != early+late {
		t.Fatalf("mixed journal recovered %d sales, the v2 run %d, want %d", got.SaleCount(), want.SaleCount(), early+late)
	}
	if !reflect.DeepEqual(got.Payouts(), want.Payouts()) || got.TotalRevenue() != want.TotalRevenue() ||
		got.TotalFees() != want.TotalFees() || !reflect.DeepEqual(got.Statement(), want.Statement()) {
		t.Fatal("mixed journal recovered different books")
	}
}

// TestRecoverSecondsGaugePerTenant checks that a reopened registry
// publishes one recovery-time series per recovered tenant.
func TestRecoverSecondsGaugePerTenant(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncNever, Logf: t.Logf}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"east", "west"}
	for i, id := range ids {
		if _, err := r.List(cheapSpec(id, int64(50+i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Telemetry = telemetry.NewRegistry()
	r, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := cfg.Telemetry.Snapshot()
	var series []string
	for _, name := range snap.SeriesNames() {
		if strings.HasPrefix(name, "nimbus_registry_recover_seconds") {
			series = append(series, name)
		}
	}
	if len(series) != len(ids) {
		t.Fatalf("recovery series %v, want one per tenant %v", series, ids)
	}
	for _, id := range ids {
		if v := snap.GaugeValue("nimbus_registry_recover_seconds", "market", id); v <= 0 {
			t.Errorf("tenant %s recovery time %v", id, v)
		}
	}
}
