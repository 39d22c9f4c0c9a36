// Package market is a miniature of internal/market for the shipped
// noise-taint configuration. Its MarshalSale encodes a sale without
// encoding/json, so a raw model handed to it is reported only because
// the configuration names MarshalSale as a sink.
package market

import (
	"encoding/binary"
	"math"

	"nimbus/internal/analysis/testdata/src/taintsink/internal/noise"
)

// Offering holds the raw trained model (a configured source field).
type Offering struct {
	Name    string
	Optimal []float64
	Mech    noise.Mechanism
}

// Purchase is one sale, as journaled.
type Purchase struct {
	Offering string
	Weights  []float64
}

// MarshalSale is the binary journal-record codec.
func MarshalSale(p Purchase) ([]byte, error) {
	rec := append([]byte{0x02}, p.Offering...)
	for _, w := range p.Weights {
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(w))
	}
	return rec, nil
}

// build constructs a sale. The analysis cannot tell which function a
// build value is, so taint in its arguments reaches its result.
type build func(offering string, weights []float64) Purchase

// Journal perturbs the model before the sale is built: clean.
func Journal(o *Offering, delta float64, mk build) ([]byte, error) {
	return MarshalSale(mk(o.Name, o.Mech.Perturb(o.Optimal, delta)))
}

// RawJournal builds the sale from the raw model, which reaches the
// journal codec unperturbed.
func RawJournal(o *Offering, mk build) ([]byte, error) {
	return MarshalSale(mk(o.Name, o.Optimal)) // want noise-taint
}
