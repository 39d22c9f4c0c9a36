package market

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalSale feeds arbitrary bytes to the sale-record decoder.
// Whatever the bytes, it must not panic; and every v2 record it accepts
// must re-encode to exactly the same bytes, so the decoder accepts one
// encoding per sale and nothing it does not fully understand. The seed
// corpus holds a v2 and a v1 record, their truncations, and a v2 record
// with trailing bytes.
func FuzzUnmarshalSale(f *testing.F) {
	v2, err := MarshalSale(goldenPurchase())
	if err != nil {
		f.Fatal(err)
	}
	v1 := []byte(`{"v":1,"purchase":{"offering":"o","loss":"squared","x":2,"ncp":0.5,"price":3,"weights":[1,2]}}`)
	for _, seed := range [][]byte{v2, v1, v2[:len(v2)/2], v1[:len(v1)/2], append(append([]byte(nil), v2...), 0), {saleRecordV2}, {}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		p, err := UnmarshalSale(rec)
		if err != nil || rec[0] != saleRecordV2 {
			return
		}
		again, err := MarshalSale(p)
		if err != nil {
			t.Fatalf("accepted record %x does not re-encode: %v", rec, err)
		}
		if !bytes.Equal(again, rec) {
			t.Fatalf("accepted record %x re-encodes as %x", rec, again)
		}
	})
}
