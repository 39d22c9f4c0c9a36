package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nimbus/internal/telemetry"
)

// appendAll appends each record, failing the test on error.
func appendAll(t *testing.T, j *Journal, recs [][]byte) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll collects every replayed record.
func replayAll(t *testing.T, j *Journal) [][]byte {
	t.Helper()
	var got [][]byte
	if err := j.Replay(func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func records(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%7))))
	}
	return recs
}

func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := records(10)
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := j.Snapshot(); ok || err != nil {
		t.Fatalf("fresh journal has snapshot (%v, %v)", ok, err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent; appends after Close refuse.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); !equalRecords(got, recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
}

func TestAppendValidation(t *testing.T) {
	j, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestRotationSpreadsSegments(t *testing.T) {
	dir := t.TempDir()
	recs := records(20)
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	j2, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); !equalRecords(got, recs) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(recs))
	}
}

func TestReopenContinuesAppending(t *testing.T) {
	dir := t.TempDir()
	recs := records(6)
	for i := 0; i < len(recs); i += 2 {
		j, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 96})
		if err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, j); !equalRecords(got, recs[:i]) {
			t.Fatalf("generation %d: replayed %d records, want %d", i/2, len(got), i)
		}
		appendAll(t, j, recs[i:i+2])
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// stateFrom serializes replayed records as a snapshot body for compaction
// tests: one record per line.
func stateFrom(recs [][]byte) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, r := range recs {
			if _, err := fmt.Fprintf(w, "%s\n", r); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestCompactionFoldsSegments(t *testing.T) {
	dir := t.TempDir()
	recs := records(12)
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Compact(stateFrom(recs)); err != nil {
		t.Fatal(err)
	}
	// Everything folded: one snapshot, one (empty) tail segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after compaction: segments %v snapshots %v", segs, snaps)
	}
	// Appends continue into the fresh tail.
	post := [][]byte{[]byte("after-compact-1"), []byte("after-compact-2")}
	appendAll(t, j, post)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rc, ok, err := j2.Snapshot()
	if err != nil || !ok {
		t.Fatalf("snapshot after compaction: ok=%v err=%v", ok, err)
	}
	body, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range recs {
		want = append(want, r...)
		want = append(want, '\n')
	}
	if string(body) != string(want) {
		t.Fatalf("snapshot body %q", body)
	}
	if got := replayAll(t, j2); !equalRecords(got, post) {
		t.Fatalf("replayed %d post-compaction records, want %d", len(got), len(post))
	}
}

func TestRepeatedCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var all [][]byte
	for round := 0; round < 3; round++ {
		batch := records(5)
		appendAll(t, j, batch)
		all = append(all, batch...)
		if err := j.Compact(stateFrom(all)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 0 {
		t.Fatalf("replay after full compaction returned %d records", len(got))
	}
	if _, ok, _ := j2.Snapshot(); !ok {
		t.Fatal("snapshot missing after repeated compaction")
	}
}

func TestSyncPolicyParsing(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q -> %q", s, p.String())
		}
	}
	// The removed "group" policy is refused like any unknown spelling.
	for _, s := range []string{"sometimes", "group"} {
		_, err := ParseSyncPolicy(s)
		if err == nil {
			t.Fatalf("policy %q accepted", s)
		}
		for _, want := range []string{"always", "interval", "never"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
	}
}

func TestIntervalSyncFlushes(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, err := Open(t.TempDir(), Options{
		Sync: SyncInterval, SyncEvery: 2 * time.Millisecond, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("flush me")); err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.Counter("nimbus_journal_fsyncs_total")
	deadline := time.Now().Add(2 * time.Second)
	for fsyncs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	recs := records(8)
	j, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 64, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("nimbus_journal_appends_total").Value(); got != uint64(len(recs)) {
		t.Fatalf("appends_total %d", got)
	}
	if reg.Counter("nimbus_journal_fsyncs_total").Value() == 0 {
		t.Fatal("no fsyncs counted under SyncAlways")
	}
	if reg.Counter("nimbus_journal_rotations_total").Value() == 0 {
		t.Fatal("no rotations counted")
	}
	if reg.Histogram("nimbus_journal_append_seconds", nil).Count() != uint64(len(recs)) {
		t.Fatal("append latency histogram not populated")
	}

	// Recovery counters on reopen.
	reg2 := telemetry.NewRegistry()
	j2, err := Open(dir, Options{Sync: SyncNever, Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := reg2.Counter("nimbus_journal_recovered_records_total").Value(); got != uint64(len(recs)) {
		t.Fatalf("recovered_records_total %d", got)
	}
	if reg2.Gauge("nimbus_journal_segments").Value() < 2 {
		t.Fatal("segment gauge not set")
	}
}

// TestSegmentsGaugeSumsJournals opens two journals on one telemetry
// registry, as the tenants of one daemon share it, and checks that after
// open, rotation, compaction and close the segments gauge reads the total
// segment files of the journals still open.
func TestSegmentsGaugeSumsJournals(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	buildDir(t, a, records(8), 64) // several segments before the gauge sees a
	reg := telemetry.NewRegistry()
	gauge := reg.Gauge("nimbus_journal_segments")
	segs := func(dirs ...string) int {
		n := 0
		for _, d := range dirs {
			m, err := filepath.Glob(filepath.Join(d, "seg-*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			n += len(m)
		}
		return n
	}
	check := func(step string, open ...string) {
		t.Helper()
		if got, want := gauge.Value(), float64(segs(open...)); got != want {
			t.Fatalf("after %s: gauge %v, want %v segment files", step, got, want)
		}
	}
	opts := Options{Sync: SyncNever, SegmentBytes: 64, Telemetry: reg}
	ja, err := Open(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ja.Close()
	jb, err := Open(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer jb.Close()
	if segs(a) < 2 {
		t.Fatalf("setup: %d segments in a, want several", segs(a))
	}
	check("open", a, b)

	before := segs(b)
	appendAll(t, jb, records(4))
	if segs(b) == before {
		t.Fatal("setup: appends did not rotate b")
	}
	check("rotate", a, b)

	if err := ja.Compact(stateFrom(nil)); err != nil {
		t.Fatal(err)
	}
	check("compact", a, b)

	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}
	check("close", a)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(OSFS{}, path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing write leaves the previous content untouched and no temp
	// file behind.
	boom := errors.New("boom")
	err := WriteFileAtomic(OSFS{}, path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "v1" {
		t.Fatalf("old content clobbered: %q", body)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file leaked")
	}
}

// TestAppendManyAllocationBudget pins the write-ahead step of a durable
// sale at zero allocations under every sync policy: frames are built in
// the journal's reused buffer and written with one call. Rotation, which
// names a new segment, is out of this budget.
func TestAppendManyAllocationBudget(t *testing.T) {
	recs := make([][]byte, 4)
	for i := range recs {
		recs[i] = []byte(strings.Repeat(string(rune('a'+i)), 384))
	}
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			j, err := Open(t.TempDir(), Options{Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := j.Close(); err != nil {
					t.Error(err)
				}
			}()
			appendMany := func() {
				if err := j.AppendMany(recs); err != nil {
					t.Fatal(err)
				}
			}
			appendMany() // sizes the frame buffer
			if got := testing.AllocsPerRun(50, appendMany); got != 0 {
				t.Errorf("AppendMany of %d records made %v allocations, want 0", len(recs), got)
			}
		})
	}
}
