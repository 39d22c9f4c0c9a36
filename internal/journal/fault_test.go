package journal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
)

// faultFS injects failures at chosen points: it fails the Nth write
// (optionally after letting a prefix of the bytes through — a torn
// write), and can fail fsync or truncate. It exercises every "the power
// went out here" window without actually crashing the process.
type faultFS struct {
	OSFS
	mu sync.Mutex
	// writesUntilFail counts successful writes before the injected
	// failure; negative disables injection.
	writesUntilFail int
	// tearBytes is how many bytes of the failing write still reach the
	// file (a torn write); 0 means the write fails outright.
	tearBytes    int
	failSync     bool
	syncs        int // Sync calls on the journal's files, failed ones included
	failTruncate bool
	failOpen     bool
	failRemove   bool
}

var (
	errInjectedWrite    = errors.New("injected write failure")
	errInjectedSync     = errors.New("injected sync failure")
	errInjectedTruncate = errors.New("injected truncate failure")
	errInjectedOpen     = errors.New("injected open failure")
	errInjectedRemove   = errors.New("injected remove failure")
)

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	fail := f.failOpen
	f.mu.Unlock()
	if fail {
		return nil, errInjectedOpen
	}
	base, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: base, fs: f}, nil
}

func (f *faultFS) Remove(name string) error {
	f.mu.Lock()
	fail := f.failRemove
	f.mu.Unlock()
	if fail {
		return errInjectedRemove
	}
	return f.OSFS.Remove(name)
}

type faultFile struct {
	File
	fs *faultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.writesUntilFail == 0 {
		ff.fs.writesUntilFail = -1
		n := ff.fs.tearBytes
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if _, err := ff.File.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, errInjectedWrite
	}
	if ff.fs.writesUntilFail > 0 {
		ff.fs.writesUntilFail--
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	fail := ff.fs.failSync
	ff.fs.syncs++
	ff.fs.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return ff.File.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	fail := ff.fs.failTruncate
	ff.fs.mu.Unlock()
	if fail {
		return errInjectedTruncate
	}
	return ff.File.Truncate(size)
}

func TestFailedWriteRollsBackAndJournalContinues(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{writesUntilFail: 1} // first append lands, second fails outright
	j, err := Open(dir, Options{Sync: SyncNever, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("second")); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	// The failed frame was cut back off, so the journal keeps working.
	if err := j.Append([]byte("third")); err != nil {
		t.Fatalf("journal unusable after rolled-back failure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := [][]byte{[]byte("first"), []byte("third")}
	if got := replayAll(t, j2); !equalRecords(got, want) {
		t.Fatalf("replayed %d records, want first+third", len(got))
	}
}

func TestTornWritePoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	// The second append tears mid-frame AND the rollback truncate fails:
	// the file now ends in a torn frame the process cannot remove, so the
	// journal must refuse further appends (appending after the tear would
	// manufacture mid-stream corruption).
	fs := &faultFS{writesUntilFail: 1, tearBytes: 5, failTruncate: true}
	j, err := Open(dir, Options{Sync: SyncNever, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("torn-away")); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if err := j.Append([]byte("after")); err == nil {
		t.Fatal("append accepted on a poisoned journal")
	}
	//lint:ignore no-dropped-error the poisoned journal's close error is part of the simulated crash
	j.Close()

	// Crash-restart: recovery truncates the torn frame and the journal
	// replays the durable prefix.
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); !equalRecords(got, [][]byte{[]byte("durable")}) {
		t.Fatalf("replayed %d records after torn write, want 1", len(got))
	}
}

func TestSyncFailurePoisonsUnderAlways(t *testing.T) {
	fs := &faultFS{writesUntilFail: -1, failSync: true}
	j, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("x")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("sync failure not surfaced: %v", err)
	}
	if err := j.Append([]byte("y")); err == nil {
		t.Fatal("append accepted after a failed fsync")
	}
	//lint:ignore no-dropped-error the poisoned journal's close error is the expected outcome here
	j.Close()
}

func TestCompactionSnapshotFailureKeepsJournalUsable(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, records(4))
	boom := errors.New("state serialization failed")
	if err := j.Compact(func(io.Writer) error { return boom }); err == nil {
		t.Fatal("compaction swallowed the snapshot failure")
	}
	// No snapshot was published and appends keep working.
	if _, ok, _ := j.Snapshot(); ok {
		t.Fatal("failed compaction published a snapshot")
	}
	if err := j.Append([]byte("alive")); err != nil {
		t.Fatalf("journal unusable after failed compaction: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := append(records(4), []byte("alive"))
	if got := replayAll(t, j2); !equalRecords(got, want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
}

// TestCloseAfterFailedCompactionReportsTheFailure covers the one state in
// which the journal holds no open tail: compaction sealed it, could not
// write the snapshot, and could not reopen it either. Close must not close
// the sealed tail a second time, and must report the compaction failure
// that poisoned the journal rather than "file already closed".
func TestCloseAfterFailedCompactionReportsTheFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &faultFS{writesUntilFail: -1}
	j, err := Open(dir, Options{Sync: SyncNever, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, records(3))
	fsys.mu.Lock()
	fsys.failOpen = true // the snapshot temp file and the tail reopen both fail
	fsys.mu.Unlock()
	if err := j.Compact(func(io.Writer) error { return nil }); !errors.Is(err, errInjectedOpen) {
		t.Fatalf("compaction error %v, want the injected open failure", err)
	}
	if err := j.Append([]byte("late")); err == nil {
		t.Fatal("append accepted by a journal with no tail")
	}
	err = j.Close()
	if !errors.Is(err, errInjectedOpen) {
		t.Fatalf("Close returned %v, want it to wrap the compaction failure", err)
	}
	if errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close closed the sealed tail a second time: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCompactionRemoveFailureKeepsJournalAppendable covers a compaction
// that published its snapshot but could not delete what it superseded:
// it reports the failure, appends still land in the fresh tail, and a
// reopened journal replays the snapshot plus that tail.
func TestCompactionRemoveFailureKeepsJournalAppendable(t *testing.T) {
	dir := t.TempDir()
	fsys := &faultFS{writesUntilFail: -1}
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	recs := records(8)
	appendAll(t, j, recs)
	fsys.mu.Lock()
	fsys.failRemove = true
	fsys.mu.Unlock()
	if err := j.Compact(stateFrom(recs)); !errors.Is(err, errInjectedRemove) {
		t.Fatalf("compaction error %v, want the injected remove failure", err)
	}
	post := [][]byte{[]byte("after-1"), []byte("after-2")}
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
	var want bytes.Buffer
	if err := stateFrom(recs)(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("snapshot holds %q, want %q", body, want.Bytes())
	}
	if got := replayAll(t, j2); !equalRecords(got, post) {
		t.Fatalf("replayed %q after the snapshot, want %q", got, post)
	}
}
