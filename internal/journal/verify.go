package journal

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// SegmentReport describes one segment file as Verify found it.
type SegmentReport struct {
	Seq    uint64 `json:"seq"`
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Frames int    `json:"frames"`
	// ValidBytes is the length of the intact frame prefix.
	ValidBytes int64 `json:"valid_bytes"`
	// Status is "clean", "torn", "corrupt", or "stale" (superseded by the
	// snapshot; recovery ignores and removes it).
	Status string `json:"status"`
}

// Report is the result of a read-only scan of a journal directory: what a
// recovery would replay, and whether it would refuse.
type Report struct {
	Dir           string          `json:"dir"`
	HasSnapshot   bool            `json:"has_snapshot"`
	SnapshotSeq   uint64          `json:"snapshot_seq,omitempty"`
	SnapshotName  string          `json:"snapshot_name,omitempty"`
	SnapshotBytes int64           `json:"snapshot_bytes,omitempty"`
	Segments      []SegmentReport `json:"segments"`
	// RecoverableFrames counts the records a recovery replays on top of
	// the snapshot; TruncatedBytes is what a torn-tail repair would drop.
	RecoverableFrames int   `json:"recoverable_frames"`
	TruncatedBytes    int64 `json:"truncated_bytes"`
	// Err is non-empty when recovery would refuse (mid-stream corruption,
	// missing segment); the remaining fields still describe what was found.
	Err string `json:"error,omitempty"`
}

// Verify scans the journal directory without modifying it and reports
// every segment's framing health plus the overall recoverability verdict.
// The verdict is Open's own (judgeRun), but Verify never truncates or
// deletes anything, so it is safe to run against a live journal (the scan
// may then see a benign in-flight torn tail).
func Verify(dir string, fsys FS) (*Report, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	st, err := listDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	rep := &Report{Dir: dir}
	if st.snapPath != "" {
		rep.HasSnapshot = true
		rep.SnapshotSeq = st.snapSeq
		rep.SnapshotName = filepath.Base(st.snapPath)
		size, err := fileSize(fsys, st.snapPath)
		if err != nil {
			return nil, err
		}
		rep.SnapshotBytes = size
	}

	var seqs []uint64
	for seq := range st.segs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })

	var run []segScan
	for _, seq := range seqs {
		sc, err := scanSegment(fsys, seq, st.segs[seq], nil)
		if err != nil {
			return nil, err
		}
		sr := SegmentReport{
			Seq:        seq,
			Name:       filepath.Base(sc.path),
			Bytes:      sc.bytes,
			Frames:     sc.frames,
			ValidBytes: sc.validLen,
			Status:     sc.status.String(),
		}
		if seq < st.snapSeq {
			sr.Status = "stale"
		} else {
			run = append(run, sc)
		}
		rep.Segments = append(rep.Segments, sr)
	}
	v := judgeRun(st.snapSeq, run)
	rep.RecoverableFrames, rep.TruncatedBytes = v.frames, v.truncated
	if v.err != nil {
		rep.Err = v.err.Error()
	}
	return rep, nil
}

// Write renders the report as the text table nimbus-cli prints.
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "journal %s\n", r.Dir); err != nil {
		return err
	}
	if r.HasSnapshot {
		if _, err := fmt.Fprintf(w, "snapshot  %s (seq %d, %d bytes)\n", r.SnapshotName, r.SnapshotSeq, r.SnapshotBytes); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintln(w, "snapshot  (none)"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-26s %6s %10s %8s %10s  %s\n", "SEGMENT", "SEQ", "BYTES", "FRAMES", "VALID", "STATUS"); err != nil {
		return err
	}
	for _, s := range r.Segments {
		if _, err := fmt.Fprintf(w, "%-26s %6d %10d %8d %10d  %s\n", s.Name, s.Seq, s.Bytes, s.Frames, s.ValidBytes, s.Status); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "recoverable frames: %d (torn tail drops %d bytes)\n", r.RecoverableFrames, r.TruncatedBytes); err != nil {
		return err
	}
	if r.Err != "" {
		if _, err := fmt.Fprintf(w, "UNRECOVERABLE: %s\n", r.Err); err != nil {
			return err
		}
	}
	return nil
}
