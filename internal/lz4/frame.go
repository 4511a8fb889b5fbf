package lz4

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame is a minimal self-describing container for one compressed
// block: magic, original size, compressed size, and a CRC32-C of the
// original data. The storage servers persist frames so the read path
// can decompress and verify integrity end to end.
//
// Layout (little endian):
//
//	0:4   magic "LZ4b"
//	4:8   original size
//	8:12  compressed size
//	12:16 crc32c(original)
//	16:   compressed payload
const (
	frameMagic      = 0x6234_5a4c // "LZ4b"
	FrameHeaderSize = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of data, the integrity check used
// throughout the block store.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// EncodeFrame compresses src at the given level and wraps it in a frame.
// If compression would expand the data, the frame stores it raw
// (compressed size == original size means "stored").
func EncodeFrame(src []byte, level Level) ([]byte, error) {
	comp, err := CompressToBuf(src, level)
	if err != nil {
		return nil, err
	}
	return WrapFrame(src, comp), nil
}

// WrapFrame builds a frame around already-compressed bytes. Callers
// that run their own Encoder (per-core, per-engine) use this to avoid
// a second compression pass. If comp is not smaller than src, the
// frame stores src raw.
func WrapFrame(src, comp []byte) []byte {
	payload := comp
	if len(comp) >= len(src) && len(src) > 0 {
		payload = src // store raw
	}
	out := make([]byte, FrameHeaderSize+len(payload))
	putFrameHeader(out, src, len(payload))
	copy(out[FrameHeaderSize:], payload)
	return out
}

// FrameInPlace turns buf, whose first n bytes are src compressed, into
// the frame WrapFrame(src, buf[:n]) would build and returns its length.
// The compressed bytes move up behind the header (or src is stored raw
// when they are not smaller), so buf must hold FrameHeaderSize+
// min(n, len(src)) bytes; CompressBound(len(src)) always suffices.
func FrameInPlace(buf, src []byte, n int) int {
	if n >= len(src) && len(src) > 0 {
		n = copy(buf[FrameHeaderSize:], src) // store raw
	} else {
		copy(buf[FrameHeaderSize:], buf[:n])
	}
	putFrameHeader(buf, src, n)
	return FrameHeaderSize + n
}

// putFrameHeader writes the header of a frame of src whose payload is
// payloadLen bytes.
func putFrameHeader(out, src []byte, payloadLen int) {
	binary.LittleEndian.PutUint32(out[0:], frameMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(src)))
	binary.LittleEndian.PutUint32(out[8:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(out[12:], Checksum(src))
}

// FrameInfo describes a parsed frame header.
type FrameInfo struct {
	OrigSize int
	CompSize int
	CRC      uint32
	Stored   bool // payload kept raw because compression expanded it
}

// ParseFrameHeader validates and decodes a frame header.
func ParseFrameHeader(frame []byte) (FrameInfo, error) {
	if len(frame) < FrameHeaderSize {
		return FrameInfo{}, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(frame[0:]) != frameMagic {
		return FrameInfo{}, ErrCorrupt
	}
	fi := FrameInfo{
		OrigSize: int(binary.LittleEndian.Uint32(frame[4:])),
		CompSize: int(binary.LittleEndian.Uint32(frame[8:])),
		CRC:      binary.LittleEndian.Uint32(frame[12:]),
	}
	fi.Stored = fi.CompSize == fi.OrigSize
	if fi.CompSize < 0 || FrameHeaderSize+fi.CompSize > len(frame) {
		return FrameInfo{}, ErrCorrupt
	}
	return fi, nil
}

// DecodeFrame decompresses a frame and verifies its checksum.
func DecodeFrame(frame []byte) ([]byte, error) {
	fi, err := ParseFrameHeader(frame)
	if err != nil {
		return nil, err
	}
	payload := frame[FrameHeaderSize : FrameHeaderSize+fi.CompSize]
	var orig []byte
	if fi.Stored {
		orig = append([]byte(nil), payload...)
	} else {
		orig, err = DecompressToBuf(payload, fi.OrigSize)
		if err != nil {
			return nil, err
		}
	}
	if Checksum(orig) != fi.CRC {
		return nil, ErrCorrupt
	}
	return orig, nil
}
