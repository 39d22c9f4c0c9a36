package registry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
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
