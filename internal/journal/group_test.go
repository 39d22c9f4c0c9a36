package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"nimbus/internal/telemetry"
)

// cacheFS simulates the OS page cache for fault injection: Write buffers
// in memory and bytes reach the real file only on Sync, so a test can
// crash the "machine" — not just the process — by abandoning the journal;
// unsynced bytes vanish exactly as a power cut would lose them.
type cacheFS struct{ OSFS }

func (f cacheFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	base, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &cacheFile{File: base}, nil
}

type cacheFile struct {
	File
	mu  sync.Mutex
	buf []byte // written but not yet synced
}

func (c *cacheFile) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *cacheFile) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buf) > 0 {
		if _, err := c.File.Write(c.buf); err != nil {
			return err
		}
		c.buf = c.buf[:0]
	}
	return c.File.Sync()
}

// TestIntervalFlushesIdleTail is the idle-durability fix: under
// SyncInterval, a record followed by silence must still be flushed within
// the SyncEvery window by the armed timer — not wait for the next append,
// rotation or Close, which may never come. The simulated machine crash
// then shows the tail survived.
func TestIntervalFlushesIdleTail(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, err := Open(dir, Options{
		Sync: SyncInterval, SyncEvery: 5 * time.Millisecond,
		FS: cacheFS{}, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("idle-tail")); err != nil {
		t.Fatal(err)
	}
	// No further journal activity: only the timer can flush the record.
	fsyncs := reg.Counter("nimbus_journal_fsyncs_total")
	deadline := time.Now().Add(2 * time.Second)
	for fsyncs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle dirty tail never flushed")
		}
		time.Sleep(time.Millisecond)
	}

	// Machine crash during the idle period: the abandoned journal's
	// unsynced buffer is simply never written. Recovery from the real
	// directory must see the flushed record.
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, j2); !equalRecords(got, [][]byte{[]byte("idle-tail")}) {
		t.Fatalf("idle tail lost: replayed %d records", len(got))
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	// Shut the abandoned journal down so its flush timer does not outlive
	// the test (the crash already happened from recovery's point of view).
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseStopsIntervalFlusher: under SyncInterval the first dirty
// append arms a flush timer, and Close stops it. A countdown pending at
// Close whose Stop loses the race fires after Close: it must touch no
// file and count no fsync, also when Close's own flush failed and left
// the tail dirty. The test fires it by calling the timer's callback
// directly. Nothing Open started outlives Close: the goroutine count
// returns to its value before Open.
func TestCloseStopsIntervalFlusher(t *testing.T) {
	for _, failFlush := range []bool{false, true} {
		t.Run(fmt.Sprintf("failClosingFlush=%v", failFlush), func(t *testing.T) {
			base := runtime.NumGoroutine()
			fs := &faultFS{writesUntilFail: -1}
			reg := telemetry.NewRegistry()
			j, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Hour, FS: fs, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte("armed")); err != nil {
				t.Fatal(err)
			}
			fs.mu.Lock()
			fs.failSync = failFlush
			fs.mu.Unlock()
			if err := j.Close(); (err != nil) != failFlush {
				t.Fatalf("Close: %v (closing flush fails: %v)", err, failFlush)
			}
			fsyncs := reg.Counter("nimbus_journal_fsyncs_total")
			counted := fsyncs.Value()
			fs.mu.Lock()
			syncs := fs.syncs
			fs.mu.Unlock()

			j.flushTimer()
			fs.mu.Lock()
			touched := fs.syncs != syncs
			fs.mu.Unlock()
			if touched || fsyncs.Value() != counted {
				t.Fatalf("a flush timer firing after Close synced the tail: file touched %v, fsyncs %d -> %d",
					touched, counted, fsyncs.Value())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before Open, %d after Close", base, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestGroupCommitSingleAppend: an uncontended append is a batch of one —
// one fsync, acknowledged only after it returns.
func TestGroupCommitSingleAppend(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, err := Open(dir, Options{Sync: SyncAlways, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("nimbus_journal_fsyncs_total").Value(); got != 1 {
		t.Fatalf("fsyncs %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); !equalRecords(got, [][]byte{[]byte("solo")}) {
		t.Fatalf("replayed %d records", len(got))
	}
}

// TestGroupCommitConcurrentAppendsAllDurable: concurrent appenders under
// SyncAlways each get their own fsync, and every acknowledged record is
// recovered.
func TestGroupCommitConcurrentAppendsAllDurable(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	j, err := Open(dir, Options{Sync: SyncAlways, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const workers, appends = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if err := j.Append([]byte(fmt.Sprintf("w%d-r%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged append was covered by an fsync of its own.
	if got := reg.Counter("nimbus_journal_fsyncs_total").Value(); got != workers*appends {
		t.Fatalf("fsyncs %d, want %d", got, workers*appends)
	}

	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := replayAll(t, j2)
	if len(got) != workers*appends {
		t.Fatalf("replayed %d records, want %d", len(got), workers*appends)
	}
	seen := make(map[string]bool, len(got))
	for _, rec := range got {
		seen[string(rec)] = true
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < appends; i++ {
			if key := fmt.Sprintf("w%d-r%d", w, i); !seen[key] {
				t.Fatalf("record %s acknowledged but not recovered", key)
			}
		}
	}
}

func TestAppendManyFailureRollsBackWholeBatch(t *testing.T) {
	dir := t.TempDir()
	// The batch write tears mid-buffer; the journal must cut the whole
	// batch back off (all-or-nothing) and keep working.
	fs := &faultFS{writesUntilFail: 1, tearBytes: 7}
	j, err := Open(dir, Options{Sync: SyncNever, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{[]byte("batch-a"), []byte("batch-b"), []byte("batch-c")}
	if err := j.AppendMany(batch); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if err := j.Append([]byte("after")); err != nil {
		t.Fatalf("journal unusable after rolled-back batch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := [][]byte{[]byte("before"), []byte("after")}
	if got := replayAll(t, j2); !equalRecords(got, want) {
		t.Fatalf("replayed %d records, want before+after with no batch remnants", len(got))
	}
}

// TestEveryPrefixOfGroupBatchesRecovers is the crash-recovery property
// over AppendMany batches: however many bytes of a batched record stream
// survive a crash, recovery replays a prefix of the acknowledged sequence
// — a torn batch tail loses records only from the end, never from the
// middle of a batch.
func TestEveryPrefixOfGroupBatchesRecovers(t *testing.T) {
	master := t.TempDir()
	j, err := Open(master, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var flat [][]byte
	var n int
	for _, size := range []int{1, 3, 2, 4, 1} {
		batch := make([][]byte, size)
		for i := range batch {
			batch[i] = []byte(fmt.Sprintf("batch-record-%02d", n))
			flat = append(flat, batch[i])
			n++
		}
		if err := j.AppendMany(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segName, body := readOnlySegment(t, master)

	prevK := -1
	for cut := 0; cut <= len(body); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), body[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := replayAll(t, j2)
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if !equalRecords(got, flat[:len(got)]) {
			t.Fatalf("cut %d: recovered records are not a prefix", cut)
		}
		if len(got) < prevK {
			t.Fatalf("cut %d: recovered %d records, previously %d", cut, len(got), prevK)
		}
		prevK = len(got)
	}
	if prevK != len(flat) {
		t.Fatalf("full journal recovered %d of %d records", prevK, len(flat))
	}
}

// TestBatchRecordsHistogram: nimbus_journal_group_batch_records takes one
// sample per AppendMany call, sized in records, under every sync policy.
func TestBatchRecordsHistogram(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			j, err := Open(t.TempDir(), Options{Sync: policy, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.AppendMany([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
				t.Fatal(err)
			}
			h, ok := reg.Snapshot().HistogramValue("nimbus_journal_group_batch_records")
			if !ok || h.Count != 1 {
				t.Fatalf("after one AppendMany: %d samples (registered %v), want 1", h.Count, ok)
			}
			for _, b := range h.Buckets {
				want := uint64(0)
				if b.LE >= 4 {
					want = 1
				}
				if b.Count != want {
					t.Fatalf("3-record batch: bucket le=%v holds %d, want %d", b.LE, b.Count, want)
				}
			}
			if err := j.AppendMany([][]byte{[]byte("d")}); err != nil {
				t.Fatal(err)
			}
			if h, _ := reg.Snapshot().HistogramValue("nimbus_journal_group_batch_records"); h.Count != 2 {
				t.Fatalf("after two AppendMany calls: %d samples, want 2", h.Count)
			}
		})
	}
}

// readOnlySegment returns the name and bytes of the journal's single
// segment, failing if the journal rotated.
func readOnlySegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	body, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(segs[0]), body
}
