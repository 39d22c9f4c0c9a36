package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nimbus/internal/journal"
)

// FuzzSpec throws arbitrary bytes at listing validation the way the
// listing endpoint sees them: a strict JSON decode into Spec, then
// normalize. It must never panic, an accepted spec must carry a valid ID
// and positive sizes, and normalizing twice must change nothing.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"id":"acme","generator":"CASP","rows":150,"grid":8,"samples":24,"seed":7}`))
	f.Add([]byte(`{"id":"up","csv":true,"task":"regression","target":"y"}`))
	f.Add([]byte(`{"id":"neg","generator":"Simulated1","rows":-3,"grid":0,"value_scale":-1}`))
	f.Add([]byte(`{"id":".hidden","generator":"CASP"}`))
	f.Add([]byte(`{"id":"x","generator":"CASP","csv":true}`))
	f.Add([]byte(`{"id":"x","model":"teleport","generator":"CASP"}`))
	f.Add([]byte(`{"id":"x","surprise":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec Spec
		if dec.Decode(&spec) != nil {
			return
		}
		norm, err := spec.normalize()
		if err != nil {
			return
		}
		if !ValidID(norm.ID) {
			t.Fatalf("accepted invalid ID %q", norm.ID)
		}
		if norm.Rows <= 0 || norm.Grid <= 0 || norm.Samples <= 0 || !(norm.ValueScale > 0) {
			t.Fatalf("accepted non-positive sizes: %+v", norm)
		}
		again, err := norm.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalize is not idempotent:\n first %+v\nsecond %+v", norm, again)
		}
	})
}

// FuzzManifest throws arbitrary bytes at recovery as a tenant's
// manifest.json. Open must either fail with an error or recover a tenant
// whose offering passes VerifySLA; it must never panic. The seeds are the
// manifests real listings write, one per shape of stored terms.
func FuzzManifest(f *testing.F) {
	const id = "fz"
	for _, l := range []listing{
		{spec: cheapSpec(id, 3)},
		{spec: Spec{ID: id, Generator: "Simulated2", Rows: 150, Grid: 8, Samples: 24, Seed: 5}},
		{spec: Spec{ID: id, Generator: "Simulated2", Model: "auto", Rows: 150, Grid: 8, Samples: 24, Seed: 9}},
		{spec: Spec{ID: id, CSV: true, Task: "regression", Target: "y", Grid: 8, Samples: 24, Seed: 11}, csv: testCSV(120)},
	} {
		root := f.TempDir()
		r, err := Open(Config{Root: root, Sync: journal.SyncNever})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := r.List(l.spec, l.csv); err != nil {
			f.Fatal(err)
		}
		if err := r.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(root, id, manifestFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"id":"fz","generator":"CASP","optimal":[1,2]}`))
	f.Add([]byte(`{"version":1,"id":"fz","generator":"CASP","model":"auto","candidate":7}`))
	csv := testCSV(120)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Spec has no size caps yet (ROADMAP item 4), so a mutated row
		// count or grid could ask recovery for an arbitrarily large
		// dataset or price table; this target bounds the work per input
		// and leaves sizes to the listing limits.
		var m manifest
		if json.Unmarshal(data, &m) == nil && (m.Rows > 1000 || m.Grid > 100) {
			return
		}
		root := t.TempDir()
		dir := filepath.Join(root, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, datasetFile), csv, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Config{Root: root, Sync: journal.SyncNever})
		if err != nil {
			return
		}
		defer r.Close()
		for _, mk := range r.Markets() {
			for _, name := range mk.Broker.Menu() {
				o, err := mk.Broker.Offering(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.VerifySLA(); err != nil {
					t.Fatalf("recovered an offering that breaks its SLA: %v", err)
				}
			}
		}
	})
}
