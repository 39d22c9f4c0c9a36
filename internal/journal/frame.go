package journal

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame layout. Every journal record is framed as
//
//	offset  size  field
//	0       4     payload length n, uint32 little-endian (1 ≤ n ≤ MaxRecordSize)
//	4       4     CRC32-C (Castagnoli) of the payload, uint32 little-endian
//	8       n     payload bytes
//
// frames are written back-to-back with no padding, so a segment is valid
// exactly when it is a concatenation of intact frames. The checksum is
// over the payload only; a corrupted length field either points past the
// end of the segment (classified as a torn tail) or lands the CRC check
// on the wrong bytes (classified by where the damage sits, see
// scanFrames).

const (
	frameHeaderSize = 8

	// MaxRecordSize bounds a single record payload (64 MiB). A sale
	// record (market.MarshalSale) is 61 B plus its offering and loss
	// names plus 8 B per weight: 813 B for a d = 90 YearMSD sale. The cap
	// exists so a corrupted length field cannot make the scanner allocate
	// gigabytes.
	MaxRecordSize = 64 << 20
)

// castagnoli is the CRC32-C polynomial table. CRC32-C has hardware
// support on amd64/arm64, which keeps framing overhead out of the append
// hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed encoding of payload to dst and returns
// the extended slice.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scanStatus classifies how a segment's byte stream ends.
type scanStatus int

const (
	// scanClean: the buffer is exactly a concatenation of intact frames.
	scanClean scanStatus = iota
	// scanTorn: an intact prefix is followed by a partial or
	// checksum-failing final frame with nothing but that frame (or
	// zero-fill) after it — the signature of a write cut short by a
	// crash. Recovery truncates the tail and keeps the prefix.
	scanTorn
	// scanCorrupt: a bad frame is followed by more data, i.e. damage in
	// the middle of the stream. Truncating here would silently drop
	// records that were once durable, so recovery refuses.
	scanCorrupt
)

func (s scanStatus) String() string {
	switch s {
	case scanClean:
		return "clean"
	case scanTorn:
		return "torn"
	default:
		return "corrupt"
	}
}

// scanFrames walks buf from the start, invoking fn (when non-nil) with
// each intact frame's payload. It returns the byte length of the valid
// prefix, the number of intact frames, and how the stream ends. A non-nil
// error from fn aborts the walk and is returned verbatim.
//
// Classification rules, in order, at the first non-intact frame:
//
//   - header or payload extends past the end of the buffer → torn
//   - zero-length frame: a run of zero bytes to the end is a zero-filled
//     torn tail; anything else after it is corruption (a genuine empty
//     record is never written, and CRC32-C of the empty payload is 0, so
//     an all-zero header would otherwise decode as a valid record)
//   - checksum mismatch with nothing (or only zero-fill) after the frame
//     → torn; with real data after it → corrupt
func scanFrames(buf []byte, fn func(payload []byte) error) (validLen int64, frames int, status scanStatus, err error) {
	off := int64(0)
	n := int64(len(buf))
	for {
		if off == n {
			return off, frames, scanClean, nil
		}
		if n-off < frameHeaderSize {
			return off, frames, scanTorn, nil
		}
		plen := int64(binary.LittleEndian.Uint32(buf[off : off+4]))
		want := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		end := off + frameHeaderSize + plen
		if plen == 0 {
			if allZero(buf[off:]) {
				return off, frames, scanTorn, nil
			}
			return off, frames, scanCorrupt, nil
		}
		if end > n || plen > MaxRecordSize {
			if end > n {
				return off, frames, scanTorn, nil
			}
			return off, frames, scanCorrupt, nil
		}
		payload := buf[off+frameHeaderSize : end]
		if crc32.Checksum(payload, castagnoli) != want {
			if end == n || allZero(buf[end:]) {
				return off, frames, scanTorn, nil
			}
			return off, frames, scanCorrupt, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, frames, scanClean, err
			}
		}
		frames++
		off = end
	}
}

// allZero reports whether every byte of b is zero (a zero-filled tail, as
// left behind by a crash that extended the file before the data pages
// reached disk).
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
