package storage

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/disagg/smartds/internal/lz4"
)

// Snapshotting (paper §2.2.3): the middle tier periodically captures a
// consistent image of a chunk's live blocks. The image is a sequence of
// records inside this repository's LZ4 stream container, so snapshots
// are themselves compressed and integrity-checked, and can be restored
// into any chunk store.
//
// Record layout inside the stream (little endian):
//
//	u64 segmentID, u32 chunkID, u32 blockOff,
//	u8 flags, u32 payloadLen, u64 writeVersion, payload bytes
// A payloadLen of 0xFFFFFFFF marks a modeled (sizes-only) record and is
// followed by u32 sizeHint instead of payload bytes. writeVersion is
// the writer-assigned block version; restores route through the
// versioned appends so replaying a snapshot over a store that already
// holds newer writes (replica backfill racing live traffic) never
// regresses a block.

const modeledMark = ^uint32(0)

// SnapshotChunk writes a consistent image of one chunk's live records
// and returns their stored size: the payload length of each record, or
// its size hint for a modeled record. That, not the image length, is
// what copying the chunk moves, and it is the same in functional and
// modeled runs.
func (s *ChunkStore) SnapshotChunk(w io.Writer, seg uint64, chunk uint32, level lz4.Level) (int, error) {
	sw, err := lz4.NewWriter(w, level, 0)
	if err != nil {
		return 0, err
	}
	stored := 0
	for _, rec := range s.records {
		if !rec.live || rec.Key.SegmentID != seg || rec.Key.ChunkID != chunk {
			continue
		}
		if err := writeSnapshotRecord(sw, rec); err != nil {
			return stored, err
		}
		stored += int(rec.SizeHint) // len(rec.Data) for a record with bytes
	}
	return stored, sw.Close()
}

// Snapshot writes an image of every live record in the store.
func (s *ChunkStore) Snapshot(w io.Writer, level lz4.Level) (int, error) {
	sw, err := lz4.NewWriter(w, level, 0)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, rec := range s.records {
		if !rec.live {
			continue
		}
		if err := writeSnapshotRecord(sw, rec); err != nil {
			return count, err
		}
		count++
	}
	return count, sw.Close()
}

func writeSnapshotRecord(w io.Writer, rec *Record) error {
	var hdr [29]byte
	binary.LittleEndian.PutUint64(hdr[0:], rec.Key.SegmentID)
	binary.LittleEndian.PutUint32(hdr[8:], rec.Key.ChunkID)
	binary.LittleEndian.PutUint32(hdr[12:], rec.Key.BlockOff)
	hdr[16] = rec.Flags
	binary.LittleEndian.PutUint64(hdr[21:], rec.WriteVersion)
	if rec.Data == nil {
		binary.LittleEndian.PutUint32(hdr[17:], modeledMark)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], rec.SizeHint)
		_, err := w.Write(sz[:])
		return err
	}
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(rec.Data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(rec.Data)
	return err
}

// RestoreSnapshot appends every record from a snapshot image into the
// store (the fail-over path for rebuilding a replacement server). It
// returns the number of records restored.
func (s *ChunkStore) RestoreSnapshot(r io.Reader) (int, error) {
	sr := lz4.NewReader(r)
	count := 0
	for {
		var hdr [29]byte
		if _, err := io.ReadFull(sr, hdr[:]); err != nil {
			if err == io.EOF {
				return count, nil
			}
			return count, fmt.Errorf("storage: snapshot record header: %w", err)
		}
		key := BlockKey{
			SegmentID: binary.LittleEndian.Uint64(hdr[0:]),
			ChunkID:   binary.LittleEndian.Uint32(hdr[8:]),
			BlockOff:  binary.LittleEndian.Uint32(hdr[12:]),
		}
		flags := hdr[16]
		plen := binary.LittleEndian.Uint32(hdr[17:])
		version := binary.LittleEndian.Uint64(hdr[21:])
		if plen == modeledMark {
			var sz [4]byte
			if _, err := io.ReadFull(sr, sz[:]); err != nil {
				return count, fmt.Errorf("storage: snapshot modeled record: %w", err)
			}
			s.AppendModeledVersioned(key, binary.LittleEndian.Uint32(sz[:]), flags, version)
		} else {
			if plen > 64<<20 {
				return count, fmt.Errorf("storage: snapshot record of %d bytes is implausible", plen)
			}
			payload := make([]byte, plen)
			if _, err := io.ReadFull(sr, payload); err != nil {
				return count, fmt.Errorf("storage: snapshot record payload: %w", err)
			}
			s.AppendVersioned(key, payload, flags, version)
		}
		count++
	}
}
