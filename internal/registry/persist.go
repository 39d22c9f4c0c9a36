package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/par"
	"nimbus/internal/pricing"
)

// On-disk layout, one directory per tenant under Config.Root:
//
//	<root>/<id>/manifest.json  - the normalized Spec (rebuild recipe) plus
//	                             the terms the offering sells on: its
//	                             error curves, h* and, for "auto" specs,
//	                             the model selection chose. Broker-private:
//	                             no route serves it.
//	<root>/<id>/dataset.csv    - raw upload, CSV-sourced tenants only
//	<root>/<id>/journal/       - the tenant's own write-ahead journal
//	<root>/.delisted/<id>-<n>  - archived tenants (renamed, never deleted)
//
// Journals are isolated per tenant on purpose: one tenant's fsync cadence,
// segment churn or corruption cannot stall or poison another's, Delist can
// compact and archive a single directory atomically, and recovery is an
// independent per-tenant replay — a torn tail in one journal truncates
// that tenant only. The price is one open segment file per live market,
// bounded by Config.MaxMarkets.

const (
	manifestFile = "manifest.json"
	datasetFile  = "dataset.csv"
	journalDir   = "journal"
	archiveRoot  = ".delisted"
)

// tenantDir is the live directory for a tenant.
func tenantDir(root, id string) string { return filepath.Join(root, id) }

// manifest is the on-disk form of manifest.json: the spec plus the terms
// the market's offering sells on. Recovery relists the offering with the
// stored terms instead of recomputing them, so a market keeps selling
// exactly what it sold — the same h*, curves and prices — even when a
// later build fits or transforms differently, and a restart runs neither
// the fit nor model selection; only the dataset is rebuilt from the spec.
// The terms live here, not in Spec, because Spec is also the listing
// request body — a seller can never supply them. A manifest without h*
// (written before it was kept) still reads: recovery fits h* once, reusing
// the stored curves if it has them and running the full listing pipeline
// if it has none, and rewrites the manifest with the terms it produced.
type manifest struct {
	Spec
	Curves []storedCurve `json:"curves,omitempty"`
	// Optimal is the offering's h*. encoding/json round-trips float64
	// exactly, so the stored weights come back bit for bit.
	Optimal []float64 `json:"optimal,omitempty"`
	// Candidate is, for an "auto" spec, the index of the model selection
	// chose in ml.DefaultCandidates for the dataset's task.
	Candidate *int `json:"candidate,omitempty"`
}

// storedCurve is one reporting loss's served error curve. encoding/json
// round-trips float64 exactly, so the served values come back bit for bit.
type storedCurve struct {
	Loss string    `json:"loss"`
	Xs   []float64 `json:"xs"`
	Errs []float64 `json:"errs"`
}

// terms is the manifest's record of what an offering sells on. The zero
// value (nothing stored) lists through the full pipeline.
type terms struct {
	curves    []*pricing.ErrorCurve
	optimal   []float64
	candidate *int
}

// writeManifest persists the normalized spec and the terms its offering
// sells on atomically (temp file, fsync, rename) so a crash mid-write
// leaves the old manifest or the new one.
func writeManifest(dir string, spec Spec, t terms) error {
	m := manifest{Spec: spec, Curves: make([]storedCurve, len(t.curves)), Optimal: t.optimal, Candidate: t.candidate}
	for i, c := range t.curves {
		m.Curves[i] = storedCurve{Loss: c.LossName, Xs: c.Xs, Errs: c.Errs}
	}
	return journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// readManifest loads and re-validates a tenant's spec and its stored
// terms (the zero terms when the manifest has none). Whether the terms
// fit the rebuilt dataset is checked when the offering is relisted.
func readManifest(dir string) (Spec, terms, error) {
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, terms{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Spec{}, terms{}, fmt.Errorf("registry: parsing %s: %w", path, err)
	}
	if m.Version != specVersion {
		return Spec{}, terms{}, fmt.Errorf("registry: %s: manifest version %d, this build reads %d", dir, m.Version, specVersion)
	}
	spec, err := m.Spec.normalize()
	if err != nil {
		return Spec{}, terms{}, err
	}
	if m.Candidate != nil && spec.Model != "auto" {
		return Spec{}, terms{}, fmt.Errorf("registry: %s: a selected model stored for a spec that selects none (model %q)", path, spec.Model)
	}
	if m.Optimal != nil && m.Candidate == nil && spec.Model == "auto" {
		return Spec{}, terms{}, fmt.Errorf("registry: %s: a stored h* without the model selection chose", path)
	}
	t := terms{optimal: m.Optimal, candidate: m.Candidate}
	for _, sc := range m.Curves {
		c, err := pricing.RestoreCurve(sc.Loss, sc.Xs, sc.Errs)
		if err != nil {
			return Spec{}, terms{}, fmt.Errorf("registry: %s: %w", path, err)
		}
		t.curves = append(t.curves, c)
	}
	return spec, t, nil
}

// persistTenant creates the tenant directory and writes the manifest plus,
// for CSV sources, the raw dataset bytes.
func persistTenant(root string, spec Spec, t terms, csvData []byte) error {
	dir := tenantDir(root, spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	if spec.CSV {
		err := journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, datasetFile), func(w io.Writer) error {
			_, werr := w.Write(csvData)
			return werr
		})
		if err != nil {
			return err
		}
	}
	return writeManifest(dir, spec, t)
}

// removeTenantDir erases a half-created tenant directory after a failed
// List; live tenants are archived by archiveTenant, never removed.
func removeTenantDir(root, id string) error {
	return os.RemoveAll(tenantDir(root, id))
}

// archiveTenant moves a delisted tenant's directory under
// <root>/.delisted/, picking the first free "<id>-<n>" slot rather than a
// timestamp so the registry stays wall-clock free and repeated
// list/delist cycles of the same ID keep every ledger. The rename is
// atomic within the filesystem, so a crash leaves the tenant either live
// or archived, never both.
func archiveTenant(root, id string) error {
	arch := filepath.Join(root, archiveRoot)
	if err := os.MkdirAll(arch, 0o755); err != nil {
		return fmt.Errorf("registry: creating archive dir: %w", err)
	}
	for n := 1; ; n++ {
		dst := filepath.Join(arch, fmt.Sprintf("%s-%d", id, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("registry: probing archive slot: %w", err)
		}
		if err := os.Rename(tenantDir(root, id), dst); err != nil {
			return fmt.Errorf("registry: archiving %s: %w", id, err)
		}
		return nil
	}
}

// openTenantJournal opens (and recovers) one tenant's journal: restore the
// compacted snapshot into the broker and replay the record tail as the
// journal reads them, then switch the broker's sale path onto the
// journal. On error the broker holds part of a ledger and is discarded.
func (r *Registry) openTenantJournal(b *market.Broker, dir string) (*journal.Journal, error) {
	j, err := journal.OpenReplay(filepath.Join(dir, journalDir), journal.Options{
		SegmentBytes: r.cfg.SegmentBytes,
		Sync:         r.cfg.Sync,
		SyncEvery:    r.cfg.SyncEvery,
		Telemetry:    r.cfg.Telemetry,
	}, b.RestoreLedger, func(rec []byte) error {
		p, err := market.UnmarshalSale(rec)
		if err != nil {
			return err
		}
		b.ReplaySale(p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("registry: recovering journal: %w", err)
	}
	b.SetJournal(j)
	return j, nil
}

// recoverTenants rebuilds every live tenant found under root. Dot-prefixed
// entries (the archive) and stray files are skipped; a tenant that fails
// to recover fails Open — better a loud restart than silently trading
// without a tenant's ledger.
//
// Tenants share nothing, so GOMAXPROCS workers recover them concurrently
// (par.Do), handed out in directory order. Each tenant is published, and
// its recovery time logged and (with telemetry) set as
// nimbus_registry_recover_seconds{market}, as soon as it finishes; those
// times overlap, so they do not sum to the time Open takes. After a
// failure no further tenant is started, and every worker is waited for,
// so the tenants that did recover are all published when Open closes
// them. The error returned is that of the first failing tenant in
// directory order.
func (r *Registry) recoverTenants() error {
	entries, err := os.ReadDir(r.cfg.Root)
	if err != nil {
		return fmt.Errorf("registry: scanning %s: %w", r.cfg.Root, err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && ValidID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	return par.Do(len(ids), func(i int) error {
		start := time.Now()
		m, err := r.recoverTenant(ids[i])
		if err != nil {
			return fmt.Errorf("registry: recovering tenant %s: %w", ids[i], err)
		}
		took := time.Since(start)
		//lint:ignore no-dropped-error Open has not returned r yet, so no Close can have begun and publish cannot fail
		r.publish(m)
		if reg := r.cfg.Telemetry; reg != nil {
			//lint:ignore telemetry-label-literal market IDs pass ValidID and the live set is capped at Config.MaxMarkets, so label cardinality is bounded by listings, not requests
			reg.Gauge("nimbus_registry_recover_seconds", "market", m.ID).Set(took.Seconds())
		}
		r.logf("registry: recovered market %s (%s) in %v: %d sales, revenue %.2f",
			m.ID, m.Spec.Source(), took.Round(time.Millisecond), m.Broker.SaleCount(), m.Broker.TotalRevenue())
		return nil
	})
}

// recoverTenant rebuilds one market from its directory: relist it with
// the terms stored in the manifest — the dataset and split are rebuilt
// from the spec, the buyer points, prices and SLA check are re-derived
// from the stored curves, and h* is not refit — then recover the ledger
// from the tenant's journal. A manifest without h* fits it (and, without
// curves, runs the full listing pipeline) and is rewritten with the terms
// it produced, so that slow path runs once per tenant.
func (r *Registry) recoverTenant(id string) (*Market, error) {
	dir := tenantDir(r.cfg.Root, id)
	spec, stored, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if spec.ID != id {
		return nil, fmt.Errorf("manifest id %q does not match directory %q", spec.ID, id)
	}
	var csvData []byte
	if spec.CSV {
		csvData, err = os.ReadFile(filepath.Join(dir, datasetFile))
		if err != nil {
			return nil, err
		}
	}
	b, listed, err := buildBroker(spec, csvData, r.cfg.Commission, stored)
	if err != nil {
		return nil, err
	}
	if stored.optimal == nil {
		if err := writeManifest(dir, spec, listed); err != nil {
			return nil, err
		}
	}
	if r.cfg.Telemetry != nil {
		b.SetTelemetry(r.cfg.Telemetry)
	}
	jnl, err := r.openTenantJournal(b, dir)
	if err != nil {
		return nil, err
	}
	return newMarket(spec, b, jnl, r.cfg.Telemetry), nil
}
