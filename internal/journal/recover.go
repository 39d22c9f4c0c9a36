package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// dirState is what a listing of the journal directory parses into.
type dirState struct {
	snapSeq  uint64 // newest snapshot's sequence, 0 if none
	snapPath string
	// segs maps every segment sequence on disk to its path.
	segs map[uint64]string
	// staleSnaps are superseded snapshot files (older sequence).
	staleSnaps []string
}

// listDir parses the journal directory. Unknown files (including .tmp
// leftovers from an interrupted atomic write) are ignored.
func listDir(fsys FS, dir string) (*dirState, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	st := &dirState{segs: make(map[uint64]string)}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if seq, ok := parseSeq(name, "seg-", ".wal"); ok {
			st.segs[seq] = filepath.Join(dir, name)
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			if seq > st.snapSeq {
				if st.snapPath != "" {
					st.staleSnaps = append(st.staleSnaps, st.snapPath)
				}
				st.snapSeq, st.snapPath = seq, filepath.Join(dir, name)
			} else {
				st.staleSnaps = append(st.staleSnaps, filepath.Join(dir, name))
			}
		}
	}
	return st, nil
}

// parseSeq extracts the hex sequence from prefix<seq>suffix names.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexpart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexpart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// recover scans the directory, removes files a finished compaction made
// redundant, validates the segments newer than the snapshot, and repairs
// a torn tail. restore and replay, when non-nil, receive the snapshot and
// then each surviving record as the scan reads them (see OpenReplay). On
// return j.replay/j.snapSeq/j.snapPath describe the recovered state.
func (j *Journal) recover(restore func(io.Reader) error, replay func([]byte) error) error {
	st, err := listDir(j.fs, j.dir)
	if err != nil {
		return err
	}
	j.snapSeq, j.snapPath = st.snapSeq, st.snapPath

	// A crash between a compaction's snapshot rename and its removals
	// leaves covered segments and superseded snapshots behind; they are
	// redundant by construction, so finish the job.
	for _, p := range st.staleSnaps {
		if err := j.fs.Remove(p); err != nil {
			return fmt.Errorf("journal: removing stale snapshot %s: %w", p, err)
		}
	}
	var seqs []uint64
	for seq, path := range st.segs {
		if seq < st.snapSeq {
			if err := j.fs.Remove(path); err != nil {
				return fmt.Errorf("journal: removing compacted segment %s: %w", path, err)
			}
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })

	if restore != nil {
		if err := j.restoreSnapshot(restore); err != nil {
			return err
		}
	}
	run := make([]segScan, 0, len(seqs))
	for _, seq := range seqs {
		sc, err := scanSegment(j.fs, seq, st.segs[seq], replay)
		if err != nil {
			return err
		}
		if sc.status != scanClean {
			// Nothing past damage is replayed: a torn segment is the last
			// one recovery keeps, and any other damage refuses below.
			replay = nil
		}
		run = append(run, sc)
	}

	v := judgeRun(st.snapSeq, run)
	if v.err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, v.err)
	}
	if v.truncated > 0 {
		// Cut the torn tail off so appends resume at a frame boundary.
		last := run[len(run)-1]
		if err := j.truncateSegment(last.path, last.validLen); err != nil {
			return err
		}
	}
	for _, sc := range run {
		j.replay = append(j.replay, segmentInfo{seq: sc.seq, path: sc.path, size: sc.validLen, frames: sc.frames})
	}
	j.tel.recoveredRecs.Add(uint64(v.frames))
	j.tel.truncatedBytes.Add(uint64(v.truncated))
	return nil
}

// restoreSnapshot hands the newest snapshot, if any, to restore.
func (j *Journal) restoreSnapshot(restore func(io.Reader) error) error {
	rc, ok, err := j.Snapshot()
	if err != nil || !ok {
		return err
	}
	err = restore(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: restoring snapshot %s: %w", j.snapPath, err)
	}
	return nil
}

// segScan is one segment's framing as a scan found it.
type segScan struct {
	seq      uint64
	path     string
	bytes    int64 // file length
	validLen int64 // length of the intact frame prefix
	frames   int
	status   scanStatus
}

// scanSegment reads the segment at path and classifies its framing,
// handing each intact record to replay when it is non-nil.
func scanSegment(fsys FS, seq uint64, path string, replay func([]byte) error) (segScan, error) {
	buf, err := readFile(fsys, path)
	if err != nil {
		return segScan{}, fmt.Errorf("journal: reading segment %s: %w", path, err)
	}
	validLen, frames, status, err := scanFrames(buf, replay)
	if err != nil {
		return segScan{}, fmt.Errorf("journal: replaying %s: %w", path, err)
	}
	return segScan{seq: seq, path: path, bytes: int64(len(buf)), validLen: validLen, frames: frames, status: status}, nil
}

// runVerdict is whether a recovery can replay a run of segments.
type runVerdict struct {
	frames    int   // records the run's intact segments hold
	truncated int64 // bytes a torn-tail repair drops from the final segment
	err       error // the first reason recovery must refuse, or nil
}

// judgeRun is the one recoverability verdict: Open acts on it (repairing
// a torn tail, or refusing with ErrCorrupt) and Verify reports it. run
// holds the segments a recovery replays — none older than the snapshot
// at snapSeq — sorted by sequence. Frames and truncated bytes are counted
// over every segment that is not itself at fault, so a refused run still
// reports what was found.
func judgeRun(snapSeq uint64, run []segScan) runVerdict {
	var v runVerdict
	refuse := func(format string, args ...any) {
		if v.err == nil {
			v.err = fmt.Errorf(format, args...)
		}
	}
	// The run must be contiguous and must start where the snapshot left
	// off (sequence 1 on a snapshotless journal): a hole means records
	// that were once durable are gone, which is not a torn tail.
	if first := max(snapSeq, 1); len(run) > 0 && run[0].seq != first {
		refuse("first segment after snapshot should be %d, found %d", first, run[0].seq)
	}
	for i := 1; i < len(run); i++ {
		if run[i].seq != run[i-1].seq+1 {
			refuse("segment %d missing (have %d then %d)", run[i-1].seq+1, run[i-1].seq, run[i].seq)
		}
	}
	for i, sc := range run {
		switch {
		case sc.status == scanClean:
		case sc.status == scanTorn && i == len(run)-1:
			// The one kind of damage a crash legitimately causes: a write
			// cut short at the very end of the log.
			v.truncated = sc.bytes - sc.validLen
		case sc.status == scanTorn:
			// A torn tail in a non-final segment means every record in the
			// segments after it postdates the damage: mid-stream corruption.
			refuse("segment %s torn at offset %d but later segments exist", sc.path, sc.validLen)
			continue
		default:
			refuse("segment %s has a bad frame at offset %d followed by data", sc.path, sc.validLen)
			continue
		}
		v.frames += sc.frames
	}
	return v
}

// truncateSegment cuts a torn tail off at size and makes the repair
// durable.
func (j *Journal) truncateSegment(path string, size int64) error {
	f, err := j.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: opening %s for repair: %w", path, err)
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	return nil
}

// openTail positions the journal for appending: the last recovered
// segment if it has room, otherwise a fresh one. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) openTail() error {
	if n := len(j.replay); n > 0 {
		last := j.replay[n-1]
		if last.size < j.opts.SegmentBytes {
			f, err := j.fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return fmt.Errorf("journal: opening tail segment: %w", err)
			}
			j.tail, j.tailSeq, j.tailSize = f, last.seq, last.size
			return nil
		}
		f, err := j.createSegment(last.seq + 1)
		if err != nil {
			return err
		}
		j.tail, j.tailSeq, j.tailSize = f, last.seq+1, 0
		return nil
	}
	// Empty journal (or everything folded into the snapshot): start at
	// the snapshot's sequence, or 1 on a fresh directory.
	seq := j.snapSeq
	if seq == 0 {
		seq = 1
	}
	f, err := j.createSegment(seq)
	if err != nil {
		return err
	}
	j.tail, j.tailSeq, j.tailSize = f, seq, 0
	return nil
}

// Snapshot returns a reader over the newest snapshot's contents, or
// ok=false when the journal has none. The caller closes it.
func (j *Journal) Snapshot() (rc io.ReadCloser, ok bool, err error) {
	if j.snapPath == "" {
		return nil, false, nil
	}
	f, err := j.fs.OpenFile(j.snapPath, os.O_RDONLY, 0)
	if err != nil {
		return nil, false, fmt.Errorf("journal: opening snapshot: %w", err)
	}
	return f, true, nil
}

// Replay streams every record that survived recovery, oldest first, to
// fn; a non-nil error from fn aborts the replay. Call it once after Open
// (and after applying Snapshot), before appending: records appended after
// Open are not replayed. It reads the segments Open already read once;
// OpenReplay replays during that first read instead.
func (j *Journal) Replay(fn func(rec []byte) error) error {
	for _, seg := range j.replay {
		buf, err := readFile(j.fs, seg.path)
		if err != nil {
			return fmt.Errorf("journal: replaying %s: %w", seg.path, err)
		}
		if int64(len(buf)) > seg.size {
			buf = buf[:seg.size]
		}
		if _, _, _, err := scanFrames(buf, fn); err != nil {
			return err
		}
	}
	return nil
}
