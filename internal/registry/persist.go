package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nimbus/internal/journal"
	"nimbus/internal/market"
)

// On-disk layout, one directory per tenant under Config.Root:
//
//	<root>/<id>/manifest.json  - the normalized Spec (rebuild recipe)
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

// writeManifest persists the normalized spec atomically (temp file, fsync,
// rename) so a crash mid-write leaves the old manifest or the new one.
func writeManifest(dir string, spec Spec) error {
	return journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	})
}

// readManifest loads and re-validates a tenant's spec.
func readManifest(dir string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("registry: parsing %s: %w", filepath.Join(dir, manifestFile), err)
	}
	if spec.Version != specVersion {
		return Spec{}, fmt.Errorf("registry: %s: manifest version %d, this build reads %d", dir, spec.Version, specVersion)
	}
	return spec.normalize()
}

// persistTenant creates the tenant directory and writes the manifest plus,
// for CSV sources, the raw dataset bytes.
func persistTenant(root string, spec Spec, csvData []byte) error {
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
	return writeManifest(dir, spec)
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
// compacted snapshot into the broker, replay the record tail, then switch
// the broker's sale path onto the journal.
func (r *Registry) openTenantJournal(b *market.Broker, dir string) (*journal.Journal, error) {
	j, err := journal.Open(filepath.Join(dir, journalDir), journal.Options{
		SegmentBytes: r.cfg.SegmentBytes,
		Sync:         r.cfg.Sync,
		SyncEvery:    r.cfg.SyncEvery,
		Telemetry:    r.cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	closeOnErr := func(err error) (*journal.Journal, error) {
		//lint:ignore no-dropped-error best-effort cleanup; the recovery failure is what gets reported
		j.Close()
		return nil, err
	}
	if snap, ok, err := j.Snapshot(); err != nil {
		return closeOnErr(err)
	} else if ok {
		err := b.RestoreLedger(snap)
		if cerr := snap.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return closeOnErr(fmt.Errorf("registry: restoring journal snapshot: %w", err))
		}
	}
	if err := j.Replay(func(rec []byte) error {
		p, err := market.UnmarshalSale(rec)
		if err != nil {
			return err
		}
		b.ReplaySale(p)
		return nil
	}); err != nil {
		return closeOnErr(fmt.Errorf("registry: replaying journal: %w", err))
	}
	b.SetJournal(j)
	return j, nil
}

// recoverTenants rebuilds every live tenant found under root. Dot-prefixed
// entries (the archive) and stray files are skipped; a tenant that fails
// to recover fails Open — better a loud restart than silently trading
// without a tenant's ledger.
func (r *Registry) recoverTenants() error {
	entries, err := os.ReadDir(r.cfg.Root)
	if err != nil {
		return fmt.Errorf("registry: scanning %s: %w", r.cfg.Root, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidID(e.Name()) {
			continue
		}
		m, err := r.recoverTenant(e.Name())
		if err != nil {
			return fmt.Errorf("registry: recovering tenant %s: %w", e.Name(), err)
		}
		r.publish(m)
		r.logf("registry: recovered market %s (%s): %d sales, revenue %.2f",
			m.ID, m.Spec.Source(), m.Broker.SaleCount(), m.Broker.TotalRevenue())
	}
	return nil
}

// recoverTenant rebuilds one market from its directory: re-run the listing
// pipeline from the manifest (datasets and curves are reproducible from
// the spec), then recover the ledger from the tenant's journal.
func (r *Registry) recoverTenant(id string) (*Market, error) {
	dir := tenantDir(r.cfg.Root, id)
	spec, err := readManifest(dir)
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
	b, err := buildBroker(spec, csvData, r.cfg.Commission)
	if err != nil {
		return nil, err
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
