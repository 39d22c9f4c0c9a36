package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Compact folds everything the journal holds — snapshot plus all appended
// records — into one fresh snapshot, then deletes the segments it covers.
// The write callback must serialize the caller's full current state (for
// the broker: its running books, which fold every sale so far); the
// journal cannot derive it from records alone.
//
// The snapshot is published atomically (temp file + fsync + rename +
// directory fsync), and the ordering makes every crash window safe:
//
//  1. seal the tail segment (fsync + close) — all records durable;
//  2. write snap-(tail+1) atomically — a crash before the rename leaves
//     the old snapshot + all segments (old state), after it the new
//     snapshot simply supersedes them;
//  3. start the fresh tail segment seg-(tail+1);
//  4. delete the covered segments and the old snapshot — a crash halfway
//     leaves redundant files that the next Open removes, and a failed
//     removal is reported but leaves the journal appendable.
//
// Callers must not append concurrently with the state callback if the
// snapshot is supposed to cover those appends; nimbusd compacts after the
// HTTP server has drained.
func (j *Journal) Compact(write func(io.Writer) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.failed != nil {
		return fmt.Errorf("journal: poisoned by earlier failure: %w", j.failed)
	}
	// Seal the tail so the snapshot strictly covers everything on disk.
	if err := j.tail.Sync(); err != nil {
		j.failed = fmt.Errorf("fsync failed: %w", err)
		return fmt.Errorf("journal: compaction flush: %w", err)
	}
	j.tel.fsyncs.Inc()
	j.dirty = false
	err := j.tail.Close()
	j.tail = nil // closed either way; a failure below leaves it so, and Close must not close it again
	if err != nil {
		j.failed = fmt.Errorf("close failed: %w", err)
		return fmt.Errorf("journal: sealing tail for compaction: %w", err)
	}

	next := j.tailSeq + 1
	snapPath := filepath.Join(j.dir, snapName(next))
	if err := WriteFileAtomic(j.fs, snapPath, write); err != nil {
		// Snapshot never happened; reopen the tail so appends can go on.
		f, oerr := j.fs.OpenFile(filepath.Join(j.dir, segName(j.tailSeq)), os.O_WRONLY|os.O_APPEND, 0)
		if oerr != nil {
			j.failed = fmt.Errorf("compaction failed (%w) and tail reopen failed (%w)", err, oerr)
			return fmt.Errorf("journal: writing snapshot: %w", err)
		}
		j.tail = f
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}

	// From here the new snapshot is authoritative. Start the fresh tail
	// before removing anything, so a removal failure cannot leave the
	// journal without one.
	f, err := j.createSegment(next)
	if err != nil {
		j.failed = err
		return err
	}
	j.tail, j.tailSeq, j.tailSize = f, next, 0
	j.replay = nil
	j.snapSeq, j.snapPath = next, snapPath
	j.tel.compactions.Inc()

	// Everything older is redundant and recovery ignores it (the next Open
	// removes what is left), so removal failures only leak disk, not
	// data. Still report them.
	st, err := listDir(j.fs, j.dir)
	if err != nil {
		j.addSegmentsLocked(1) // nothing removed
		return err
	}
	var errs []error
	for _, p := range st.staleSnaps {
		if err := j.fs.Remove(p); err != nil {
			errs = append(errs, fmt.Errorf("journal: removing superseded snapshot %s: %w", p, err))
		}
	}
	left := 1
	for seq, path := range st.segs {
		if seq < next {
			if err := j.fs.Remove(path); err != nil {
				left++
				errs = append(errs, fmt.Errorf("journal: removing compacted segment %s: %w", path, err))
			}
		}
	}
	j.addSegmentsLocked(left - j.segs)
	return errors.Join(errs...)
}
