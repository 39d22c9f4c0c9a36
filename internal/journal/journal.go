// Package journal is a stdlib-only append-only write-ahead journal for
// the broker's sale ledger — the marketplace's only irreplaceable state.
// On restart markets are relisted from their manifests (datasets rebuilt
// from source, h* and served error curves read back); the record of who
// bought what at which price is not reproducible, so it must survive
// kill -9.
//
// On disk a journal directory holds at most one snapshot plus a run of
// segment files:
//
//	snap-%016x.snap   full state at a point in time, written atomically
//	seg-%016x.wal     CRC32C-framed records appended since then
//
// Records are length-prefixed, checksummed frames (see frame.go).
// Segments rotate at Options.SegmentBytes; the snapshot's sequence number
// N means "this snapshot folds in every record of every segment with
// sequence < N", so recovery loads the newest snapshot and replays the
// segments at or above its sequence, in order.
//
// Recovery tolerates exactly the damage a crash can cause: a torn final
// write in the final segment is truncated away, while a bad frame with
// valid data after it — damage to records that were once durable — makes
// recovery refuse rather than silently drop sales (ErrCorrupt).
//
// Durability is configurable per deployment via SyncPolicy: fsync every
// append call (no completed sale is ever lost), fsync on an interval
// (bounded loss window, near-zero fsync amplification), or leave flushing
// to the OS (benchmarks). Batching concurrent sales into one AppendMany —
// one frame write and one fsync — is the caller's job; the broker's
// commit queue does it.
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nimbus/internal/telemetry"
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append or AppendMany call: a sale
	// acknowledged to the buyer is on stable storage before the response
	// leaves the broker. Costs one disk flush per call, which the broker's
	// commit queue makes one per batch of concurrent sales.
	SyncAlways SyncPolicy = iota
	// SyncInterval marks appends dirty and fsyncs at most once per
	// Options.SyncEvery (plus at rotation, compaction and Close). A crash
	// loses at most the final window of sales; the disk sees a bounded
	// flush rate regardless of traffic.
	SyncInterval
	// SyncNever leaves flushing entirely to the OS page cache. Only the
	// process dying is survivable, not the machine; meant for benchmarks
	// and tests.
	SyncNever
)

// ParseSyncPolicy maps the CLI spellings onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Defaults for Options zero values.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultSyncEvery    = 100 * time.Millisecond
)

// Options configures a journal. The zero value is usable: OS filesystem,
// 4 MiB segments, fsync on every append.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment that reaches this
	// many bytes is sealed and a fresh one started.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncEvery is the flush interval under SyncInterval.
	SyncEvery time.Duration
	// FS overrides the filesystem, for fault injection. Nil means OSFS.
	FS FS
	// Telemetry, when non-nil, receives the journal's metrics:
	// append latency/count/bytes, fsyncs, rotations, compactions, and
	// the recovery counters (replayable records, truncated tail bytes).
	Telemetry *telemetry.Registry
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrCorrupt marks unrecoverable journal damage: a bad frame in the
// middle of the record stream (not a torn tail), or a missing segment.
// Wrapped errors carry the segment and offset.
var ErrCorrupt = errors.New("journal: corrupt")

// Journal is an open write-ahead journal. It is safe for concurrent use;
// appends are serialized, so record order on disk is the order Append
// calls returned.
type Journal struct {
	dir  string
	opts Options
	fs   FS

	mu       sync.Mutex
	tail     File   // guarded by mu; nil once a failed compaction or rotation closed it
	tailSeq  uint64 // guarded by mu
	tailSize int64  // guarded by mu
	dirty    bool   // guarded by mu; bytes written since the last fsync
	armed    bool   // guarded by mu; an interval flush countdown is pending
	failed   error  // guarded by mu; sticky: a failed write/sync poisons the journal until reopen
	closed   bool   // guarded by mu
	buf      []byte // guarded by mu; frame scratch, reused across appends
	segs     int    // guarded by mu; this journal's share of the segments gauge

	// flush is the interval policy's countdown, created by the first
	// append that dirties the tail and re-armed with Reset: the
	// durability window is anchored to that append, and an idle journal
	// costs no timer wakeups. Nil until then, and under other policies.
	flush *time.Timer // guarded by mu

	// Recovery state captured at Open, read by Snapshot/Replay.
	replay   []segmentInfo
	snapSeq  uint64
	snapPath string

	tel journalTelemetry
}

// segmentInfo is one segment as found at Open: its valid byte length is
// pinned so Replay sees exactly the recovered prefix even if appends have
// extended the file since.
type segmentInfo struct {
	seq    uint64
	path   string
	size   int64
	frames int
}

// journalTelemetry bundles the metric handles; all are nil-safe.
type journalTelemetry struct {
	appendLatency  *telemetry.Histogram
	appends        *telemetry.Counter
	appendBytes    *telemetry.Counter
	fsyncs         *telemetry.Counter
	rotations      *telemetry.Counter
	compactions    *telemetry.Counter
	recoveredRecs  *telemetry.Counter
	truncatedBytes *telemetry.Counter
	segments       *telemetry.Gauge
	batchRecs      *telemetry.Histogram
}

func (j *Journal) initTelemetry(reg *telemetry.Registry) {
	reg.Help("nimbus_journal_append_seconds", "Latency of one journal append, including fsync under the always policy.")
	reg.Help("nimbus_journal_appends_total", "Records appended to the journal.")
	reg.Help("nimbus_journal_append_bytes_total", "Payload bytes appended to the journal.")
	reg.Help("nimbus_journal_fsyncs_total", "fsync calls issued by the journal.")
	reg.Help("nimbus_journal_rotations_total", "Segment rotations.")
	reg.Help("nimbus_journal_compactions_total", "Snapshot compactions.")
	reg.Help("nimbus_journal_recovered_records_total", "Records replayed from the journal at startup.")
	reg.Help("nimbus_journal_recovered_truncated_bytes_total", "Torn-tail bytes truncated during recovery.")
	reg.Help("nimbus_journal_segments", "Segment files on disk, summed over the open journals.")
	reg.Help("nimbus_journal_group_batch_records", "Records per append call: one sample per batch the broker's commit queue flushes.")
	j.tel = journalTelemetry{
		appendLatency:  reg.Histogram("nimbus_journal_append_seconds", nil),
		appends:        reg.Counter("nimbus_journal_appends_total"),
		appendBytes:    reg.Counter("nimbus_journal_append_bytes_total"),
		fsyncs:         reg.Counter("nimbus_journal_fsyncs_total"),
		rotations:      reg.Counter("nimbus_journal_rotations_total"),
		compactions:    reg.Counter("nimbus_journal_compactions_total"),
		recoveredRecs:  reg.Counter("nimbus_journal_recovered_records_total"),
		truncatedBytes: reg.Counter("nimbus_journal_recovered_truncated_bytes_total"),
		segments:       reg.Gauge("nimbus_journal_segments"),
		batchRecs:      reg.Histogram("nimbus_journal_group_batch_records", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
}

// Open recovers the journal in dir (creating it if needed) and readies it
// for appends: it locates the newest snapshot, validates the segment tail
// after it, truncates a torn final write, and opens the last segment for
// appending. Damage that cannot be attributed to a torn tail returns
// ErrCorrupt. After Open, read the recovered state via Snapshot and
// Replay, which reads the segments again, then Append away.
//
//lint:owns the journal holds an open segment file (and under SyncInterval a pending flush timer); the caller must Close it on every path
func Open(dir string, opts Options) (*Journal, error) {
	return OpenReplay(dir, opts, nil, nil)
}

// OpenReplay is Open that hands the recovered state over while recovery
// reads it, so every replayed segment is read from disk once, and only
// one segment's bytes are held at a time. restore, when non-nil, reads
// the newest snapshot if there is one; then replay, when non-nil, receives
// every record that survives recovery, oldest first. An error from either
// fails OpenReplay, wrapped. OpenReplay judges the tail as it reads it, so
// when it fails — with ErrCorrupt found in a later segment, or an error
// from restore or replay — restore and replay may already have seen part
// of the journal, and the caller must discard whatever they built.
//
//lint:owns the journal holds an open segment file (and under SyncInterval a pending flush timer); the caller must Close it on every path
func OpenReplay(dir string, opts Options, restore func(snapshot io.Reader) error, replay func(rec []byte) error) (*Journal, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts, fs: opts.FS}
	j.initTelemetry(opts.Telemetry)
	if err := j.recover(restore, replay); err != nil {
		return nil, err
	}
	// No other goroutine can reach j yet, but openTail and segmentsOnDisk
	// touch mu-guarded tail state, so honor the contract anyway — it keeps
	// the locking story uniform and costs one uncontended lock at startup.
	j.mu.Lock()
	err := j.openTail()
	if err == nil {
		j.addSegmentsLocked(j.segmentsOnDisk())
	}
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return j, nil
}

// segmentsOnDisk counts the recovered segments plus the tail, without
// double-counting when the tail is a recovered segment.
//
//lint:holds mu
func (j *Journal) segmentsOnDisk() int {
	n := len(j.replay)
	if n == 0 || j.replay[n-1].seq != j.tailSeq {
		n++
	}
	return n
}

// addSegmentsLocked moves this journal's segment count by delta. Journals
// sharing a telemetry registry share one gauge, so each applies only the
// change in its own count and the gauge reads the total.
//
//lint:holds mu
func (j *Journal) addSegmentsLocked(delta int) {
	j.segs += delta
	j.tel.segments.Add(float64(delta))
}

// checkRecord validates one record against the append preconditions.
func checkRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if int64(len(rec)) > MaxRecordSize {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(rec))
	}
	return nil
}

// Append writes one record, making it durable according to the sync
// policy, and returns once the record is on the tail segment. Appends are
// atomic with respect to recovery: a crash mid-append loses at most this
// record, never an earlier one.
func (j *Journal) Append(rec []byte) error {
	return j.AppendMany([][]byte{rec})
}

// AppendMany writes a run of records as one frame-buffer write, making
// them durable according to the sync policy before returning — under
// SyncAlways, one fsync for the whole run. The batch is atomic against
// failure: if the write cannot complete, the tail is truncated back so
// none of the batch's frames remain on disk (a torn tail a crash leaves
// behind is still recovered to a prefix of the batch).
func (j *Journal) AppendMany(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if err := checkRecord(rec); err != nil {
			return err
		}
	}
	start := time.Now()
	j.mu.Lock()
	err := j.writeLocked(recs, j.opts.Sync == SyncAlways)
	j.mu.Unlock()
	if err != nil {
		return err
	}
	j.tel.appendLatency.Observe(time.Since(start).Seconds())
	j.tel.batchRecs.Observe(float64(len(recs)))
	return nil
}

// writeLocked frames recs into one buffer, writes it to the tail in a
// single call, optionally fsyncs, and rotates a full segment. It is the
// shared core of every append path. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) writeLocked(recs [][]byte, fsync bool) error {
	if j.closed {
		return ErrClosed
	}
	if j.failed != nil {
		return fmt.Errorf("journal: poisoned by earlier failure: %w", j.failed)
	}
	j.buf = j.buf[:0]
	var payload int
	for _, rec := range recs {
		j.buf = appendFrame(j.buf, rec)
		payload += len(rec)
	}
	if _, err := j.tail.Write(j.buf); err != nil {
		// The write may have landed partially, leaving a torn frame in
		// the middle of a live file. Try to cut the whole batch back off;
		// if that also fails, poison the journal — appending after a torn
		// frame would manufacture exactly the mid-stream corruption
		// recovery refuses.
		if terr := j.tail.Truncate(j.tailSize); terr != nil {
			j.failed = fmt.Errorf("append failed (%v) and truncate-back failed (%v)", err, terr)
		}
		return fmt.Errorf("journal: append: %w", err)
	}
	j.tailSize += int64(len(j.buf))
	j.dirty = true
	if fsync {
		if err := j.tail.Sync(); err != nil {
			j.failed = fmt.Errorf("fsync failed: %w", err)
			return fmt.Errorf("journal: append fsync: %w", err)
		}
		j.dirty = false
		j.tel.fsyncs.Inc()
	} else if j.opts.Sync == SyncInterval {
		j.armFlushLocked()
	}
	if j.tailSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			// The records themselves are safely in the sealed segment;
			// only the rotation failed. Poison so the operator finds out.
			j.failed = err
			return fmt.Errorf("journal: rotating segment: %w", err)
		}
	}
	j.tel.appends.Add(uint64(len(recs)))
	j.tel.appendBytes.Add(uint64(payload))
	return nil
}

// armFlushLocked starts one SyncEvery countdown if none is pending, so
// dirty bytes are flushed at most SyncEvery after the append that first
// dirtied the tail. A free-running ticker would instead let bytes written
// just after a tick sit for up to a full extra period, and would keep
// waking an idle process. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) armFlushLocked() {
	if j.armed {
		return
	}
	j.armed = true
	if j.flush == nil {
		j.flush = time.AfterFunc(j.opts.SyncEvery, j.flushTimer)
	} else {
		j.flush.Reset(j.opts.SyncEvery)
	}
}

// flushTimer is the countdown's callback. A countdown that fires after
// Close (Stop lost the race) or after a failure touches nothing.
func (j *Journal) flushTimer() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.armed = false
	if j.closed || j.failed != nil {
		return
	}
	// syncLocked records a failure in j.failed, which the next Append
	// reports; a timer has no caller to tell.
	//lint:ignore no-dropped-error the failure is sticky in j.failed and reported by the next append
	j.syncLocked()
}

// rotateLocked seals the tail segment (fsync + close) and starts the next
// one. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) rotateLocked() error {
	if err := j.tail.Sync(); err != nil {
		return fmt.Errorf("sealing segment %d: %w", j.tailSeq, err)
	}
	j.tel.fsyncs.Inc()
	j.dirty = false
	err := j.tail.Close()
	j.tail = nil // closed either way; Close must not close it again
	if err != nil {
		return fmt.Errorf("closing segment %d: %w", j.tailSeq, err)
	}
	f, err := j.createSegment(j.tailSeq + 1)
	if err != nil {
		return err
	}
	j.tail = f
	j.tailSeq++
	j.tailSize = 0
	j.tel.rotations.Inc()
	j.addSegmentsLocked(1)
	return nil
}

// createSegment creates the segment file for seq and makes its directory
// entry durable.
func (j *Journal) createSegment(seq uint64) (File, error) {
	path := filepath.Join(j.dir, segName(seq))
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("creating segment %d: %w", seq, err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		//lint:ignore no-dropped-error best-effort cleanup; the directory-sync failure is what gets reported
		f.Close()
		return nil, fmt.Errorf("syncing journal directory: %w", err)
	}
	return f, nil
}

// Sync forces dirty appends to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// syncLocked flushes dirty appends. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.tail.Sync(); err != nil {
		j.failed = fmt.Errorf("fsync failed: %w", err)
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	j.tel.fsyncs.Inc()
	return nil
}

// Close flushes and closes the tail segment. Further operations return
// ErrClosed. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.flush != nil {
		j.flush.Stop()
	}
	j.addSegmentsLocked(-j.segs)
	if j.tail == nil {
		// A compaction or rotation sealed the tail and could not start
		// another; that failure poisoned the journal and is the one to
		// report.
		return fmt.Errorf("journal: closing after earlier failure: %w", j.failed)
	}
	var err error
	if j.dirty && j.failed == nil {
		if serr := j.tail.Sync(); serr != nil {
			err = fmt.Errorf("journal: closing flush: %w", serr)
		} else {
			j.dirty = false
			j.tel.fsyncs.Inc()
		}
	}
	if cerr := j.tail.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: closing segment: %w", cerr)
	}
	return err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// segName and snapName are the on-disk naming scheme; sequence numbers
// are zero-padded hex so lexical order is numeric order.
func segName(seq uint64) string  { return fmt.Sprintf("seg-%016x.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }
