package market

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzRestoreLedger feeds arbitrary bytes to the snapshot reader. It must
// not panic, and any snapshot it accepts must survive a save and a second
// restore with an identical Statement: whatever books it installs,
// SaveLedger can write and RestoreLedger reads back. The seed corpus holds
// the v1 golden, the v2 snapshot of the same books, and the hand-written
// v2 snapshot.
func FuzzRestoreLedger(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "ledger-v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	b := NewBroker(1)
	if err := b.RestoreLedger(bytes.NewReader(v1)); err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := b.SaveLedger(&v2); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v1, v2.Bytes(), []byte(v2Books)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		b := NewBroker(1)
		if err := b.RestoreLedger(bytes.NewReader(snap)); err != nil {
			return
		}
		var saved bytes.Buffer
		if err := b.SaveLedger(&saved); err != nil {
			t.Fatalf("accepted snapshot %q does not save: %v", snap, err)
		}
		again := NewBroker(1)
		if err := again.RestoreLedger(&saved); err != nil {
			t.Fatalf("accepted snapshot %q saves as %q, which is refused: %v", snap, saved.Bytes(), err)
		}
		if got, want := again.Statement(), b.Statement(); !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted snapshot %q restores as %+v, then %+v", snap, want, got)
		}
	})
}
