package registry

import (
	"bytes"
	"fmt"
	"slices"

	"nimbus/internal/dataset"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
)

// Spec describes how one tenant market is built: which dataset backs it
// (a named generator or seller-uploaded CSV), which model is sold, and the
// listing parameters of the Figure 2 pipeline. The spec is the recipe in
// the tenant's manifest: a restart rebuilds the dataset from it and
// relists with the terms stored beside it — h*, the error curves and the
// model selection chose (see manifest) — so the market keeps the terms it
// served; the sale ledger rides the journal.
type Spec struct {
	// Version guards the on-disk manifest format.
	Version int `json:"version,omitempty"`
	// ID is the dataset ID the market is keyed by: a URL- and
	// directory-safe name, unique among live markets.
	ID string `json:"id"`
	// Owner names the seller the market's payouts accrue to.
	Owner string `json:"owner,omitempty"`

	// Generator names a built-in dataset source: Simulated1, Simulated2,
	// or one of the UCI stand-ins (dataset.StandInNames). Mutually
	// exclusive with CSV.
	Generator string `json:"generator,omitempty"`
	// Rows sizes a generated dataset (default 500).
	Rows int `json:"rows,omitempty"`

	// CSV indicates the dataset was uploaded as CSV; the raw bytes live in
	// the tenant directory's dataset.csv (not in the manifest). Task and
	// Target describe how to parse it.
	CSV bool `json:"csv,omitempty"`
	// Task is "regression" or "classification" (CSV sources only).
	Task string `json:"task,omitempty"`
	// Target names the CSV label column (required for CSV sources).
	Target string `json:"target,omitempty"`

	// Model picks what is sold: "linear-regression",
	// "logistic-regression", "auto" (cross-validated selection), or empty
	// for the task default.
	Model string `json:"model,omitempty"`
	// Grid is the offered quality-grid size (default 20).
	Grid int `json:"grid,omitempty"`
	// Samples is a Monte-Carlo sample count per grid point (default 60).
	// Nothing reads it: every market sells through the Gaussian mechanism,
	// whose error curves are exact. The field stays so that stored
	// manifests and requests that carry it still decode.
	Samples int `json:"samples,omitempty"`
	// Seed drives the dataset generation, the split, model selection and
	// the sale noise.
	Seed int64 `json:"seed,omitempty"`
	// ValueScale parameterizes the seller's market research — buyers value
	// an error-e model at ValueScale/(1+e) with unit demand (default 100).
	// The demo cannot ship a closure over HTTP, so research is this one
	// documented parametric family.
	ValueScale float64 `json:"value_scale,omitempty"`
}

// specVersion is the current manifest format.
const specVersion = 1

// maxIDLen bounds tenant IDs; with Config.MaxMarkets it is what keeps the
// telemetry `market` label finite and the tenant directory names sane.
const maxIDLen = 64

// ValidID reports whether id is usable as a market key: non-empty, at most
// maxIDLen bytes, letters/digits/dot/dash/underscore only, not starting
// with a dot (dot-prefixed names are reserved for registry bookkeeping,
// e.g. the archive directory).
func ValidID(id string) bool {
	if id == "" || len(id) > maxIDLen || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// normalize validates the spec and fills defaults. It returns the filled
// copy so the persisted manifest records the effective parameters.
func (s Spec) normalize() (Spec, error) {
	if !ValidID(s.ID) {
		return s, fmt.Errorf("%w: %q (want 1-%d letters, digits, '.', '-' or '_', not starting with '.')", ErrBadID, s.ID, maxIDLen)
	}
	s.Version = specVersion
	if s.CSV && s.Generator != "" {
		return s, fmt.Errorf("registry: market %s: generator and csv sources are mutually exclusive", s.ID)
	}
	if !s.CSV && s.Generator == "" {
		return s, fmt.Errorf("registry: market %s: need a dataset source (generator or csv)", s.ID)
	}
	if s.CSV {
		switch s.Task {
		case "regression", "classification":
		default:
			return s, fmt.Errorf("registry: market %s: csv task %q (want regression or classification)", s.ID, s.Task)
		}
		if s.Target == "" {
			return s, fmt.Errorf("registry: market %s: csv source needs a target column", s.ID)
		}
	}
	if s.Generator != "" && !knownGenerator(s.Generator) {
		return s, fmt.Errorf("registry: market %s: unknown generator %q (have %v)", s.ID, s.Generator, GeneratorNames())
	}
	switch s.Model {
	case "", "auto", "linear-regression", "logistic-regression":
	default:
		return s, fmt.Errorf("registry: market %s: unknown model %q (want linear-regression, logistic-regression or auto)", s.ID, s.Model)
	}
	if s.Rows <= 0 {
		s.Rows = 500
	}
	if s.Grid <= 0 {
		s.Grid = 20
	}
	if s.Samples <= 0 {
		s.Samples = 60
	}
	if s.ValueScale <= 0 {
		s.ValueScale = 100
	}
	return s, nil
}

// GeneratorNames lists the built-in dataset sources a Spec may name.
func GeneratorNames() []string {
	return append([]string{"Simulated1", "Simulated2"}, dataset.StandInNames()...)
}

func knownGenerator(name string) bool {
	for _, n := range GeneratorNames() {
		if n == name {
			return true
		}
	}
	return false
}

// buildDataset materializes the spec's dataset. csvData is the uploaded
// file for CSV sources (nil otherwise). The dataset is renamed to the
// market ID so offering names — "<id>/<model>" — stay unique across
// tenants.
func buildDataset(spec Spec, csvData []byte) (*dataset.Dataset, error) {
	if spec.CSV {
		task := dataset.Regression
		if spec.Task == "classification" {
			task = dataset.Classification
		}
		d, err := dataset.ReadCSV(bytes.NewReader(csvData), spec.ID, task, spec.Target)
		if err != nil {
			return nil, fmt.Errorf("registry: market %s: parsing csv: %w", spec.ID, err)
		}
		return d, nil
	}
	cfg := dataset.GenConfig{Rows: spec.Rows, Seed: spec.Seed}
	var d *dataset.Dataset
	var err error
	switch spec.Generator {
	case "Simulated1":
		d = dataset.Simulated1(cfg)
	case "Simulated2":
		d = dataset.Simulated2(cfg)
	default:
		d, err = dataset.StandIn(spec.Generator, cfg)
		if err != nil {
			return nil, fmt.Errorf("registry: market %s: %w", spec.ID, err)
		}
	}
	d.Name = spec.ID
	return d, nil
}

// buildBroker runs the listing pipeline for the spec on a fresh broker:
// generate/parse the dataset, split it, pick the model, train, transform,
// optimize prices, and list the offering. This is the slow part of List —
// the registry runs it outside its lock. An "auto" spec lists the
// ml.DefaultCandidates entry that 3-fold cross-validation picks, under
// the task's reporting loss. The stored terms of an offering that served
// before a restart replace what they hold: curves the transform, h* the
// fit, and the selected candidate model selection. It returns the terms
// the offering sells on, which the manifest records.
func buildBroker(spec Spec, csvData []byte, commission float64, stored terms) (*market.Broker, terms, error) {
	d, err := buildDataset(spec, csvData)
	if err != nil {
		return nil, terms{}, err
	}
	pair, err := dataset.NewPair(d, rng.New(spec.Seed+1))
	if err != nil {
		return nil, terms{}, fmt.Errorf("registry: market %s: %w", spec.ID, err)
	}
	scale := spec.ValueScale
	seller, err := market.NewSeller(pair, market.Research{
		Value:  func(e float64) float64 { return scale / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		return nil, terms{}, fmt.Errorf("registry: market %s: %w", spec.ID, err)
	}
	cfg := market.OfferingConfig{
		Seller:  seller,
		Grid:    pricing.DefaultGrid(spec.Grid),
		Curves:  stored.curves,
		Optimal: stored.optimal,
	}
	candidate := stored.candidate
	switch spec.Model {
	case "auto":
		candidates := ml.DefaultCandidates(pair.Train.Task)
		if candidate == nil {
			var loss ml.Loss = ml.ZeroOneLoss{}
			if pair.Train.Task == dataset.Regression {
				loss = ml.SquaredLoss{}
			}
			best, _, err := ml.SelectModel(pair.Train, candidates, loss, 3, rng.New(spec.Seed+3))
			if err != nil {
				return nil, terms{}, fmt.Errorf("registry: market %s: selecting a model: %w", spec.ID, err)
			}
			i := slices.Index(candidates, best)
			candidate = &i
		} else if *candidate < 0 || *candidate >= len(candidates) {
			return nil, terms{}, fmt.Errorf("registry: market %s: selected model %d of %d candidates", spec.ID, *candidate, len(candidates))
		}
		cfg.Model = candidates[*candidate]
	case "linear-regression":
		cfg.Model = ml.LinearRegression{Ridge: 1e-4}
	case "logistic-regression":
		cfg.Model = ml.LogisticRegression{Ridge: 1e-4}
	default: // task default
		switch pair.Train.Task {
		case dataset.Regression:
			cfg.Model = ml.LinearRegression{Ridge: 1e-4}
		case dataset.Classification:
			cfg.Model = ml.LogisticRegression{Ridge: 1e-4}
		}
	}
	b := market.NewBroker(spec.Seed + 2)
	if err := b.SetCommission(commission); err != nil {
		return nil, terms{}, fmt.Errorf("registry: market %s: %w", spec.ID, err)
	}
	o, err := b.List(cfg)
	if err != nil {
		return nil, terms{}, fmt.Errorf("registry: listing market %s: %w", spec.ID, err)
	}
	return b, terms{curves: o.ErrorCurves(), optimal: o.Optimal, candidate: candidate}, nil
}

// Source renders the spec's dataset source for logs and API responses:
// "generator:CASP" or "csv:regression".
func (s Spec) Source() string {
	if s.CSV {
		return "csv:" + s.Task
	}
	return "generator:" + s.Generator
}

// optionModes maps the API's purchase-option strings onto the broker's
// three buy entry points; shared by Market.Buy and the server handlers.
var optionModes = []string{"quality", "error-budget", "price-budget"}

// validOption reports whether the purchase option is one of the paper's
// three interaction modes.
func validOption(option string) bool {
	for _, o := range optionModes {
		if o == option {
			return true
		}
	}
	return false
}
