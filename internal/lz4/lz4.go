// Package lz4 implements the LZ4 block compression format from scratch
// using only the standard library.
//
// The paper's middle tier compresses every 4 KB data block with LZ4
// before replicating it to storage servers; SmartDS offloads exactly
// this codec into per-port hardware engines. This package provides the
// functional codec both the software (CPU) path and the simulated
// hardware engines execute, including the paper's "compression effort"
// knob (§2.2.1) as compression levels: higher levels search deeper
// match chains and buy a better ratio with more (simulated) time.
//
// The encoded stream is the standard LZ4 block format: a sequence of
// (token, literals, offset, match-length) records with 4-byte minimum
// matches and 64 KiB maximum offsets.
package lz4

import (
	"errors"
	"fmt"
)

const (
	minMatch     = 4  // smallest encodable match
	lastLiterals = 5  // the final bytes of a block are always literals
	mfLimit      = 12 // no match may start within mfLimit bytes of the end
	hashLog      = 16
	hashShift    = 32 - hashLog
	maxOffset    = 65535
)

// Level selects compression effort: the maximum number of hash-chain
// candidates examined per position. Level 1 mimics LZ4-fast (single
// probe); higher levels approach LZ4-HC ratios.
type Level int

// Standard effort levels. The middle tier picks a level per request
// based on service type and load (paper §2.2.1).
const (
	LevelFast    Level = 1
	LevelDefault Level = 3
	LevelHigh    Level = 6
	LevelMax     Level = 9
)

// attempts maps a level to its chain-search depth.
func (l Level) attempts() int {
	switch {
	case l <= 1:
		return 1
	case l >= 9:
		return 256
	default:
		return 1 << uint(l-1)
	}
}

// Valid reports whether the level is within the supported range.
func (l Level) Valid() bool { return l >= 1 && l <= 9 }

var (
	// ErrShortBuffer is returned when dst cannot hold the output.
	ErrShortBuffer = errors.New("lz4: destination buffer too small")
	// ErrCorrupt is returned when compressed input is malformed.
	ErrCorrupt = errors.New("lz4: corrupt compressed data")
)

// CompressBound returns the maximum compressed size for n input bytes.
func CompressBound(n int) int { return n + n/255 + 16 }

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func hash4(u uint32) uint32 { return (u * 2654435761) >> hashShift }

// Compress compresses src into dst at the given level and returns the
// number of bytes written, running a fresh Encoder. dst must be at
// least CompressBound(len(src)) bytes; otherwise ErrShortBuffer is
// returned.
func Compress(dst, src []byte, level Level) (int, error) {
	return NewEncoder(len(src)).Compress(dst, src, level)
}

// CompressToBuf compresses src into a freshly allocated buffer.
func CompressToBuf(src []byte, level Level) ([]byte, error) {
	dst := make([]byte, CompressBound(len(src)))
	n, err := Compress(dst, src, level)
	if err != nil {
		return nil, err
	}
	return dst[:n:n], nil
}

// emitSequence writes one (literals, match) sequence at dst[di:].
func emitSequence(dst []byte, di int, literals []byte, offset, matchLen int) (int, error) {
	if offset <= 0 || offset > maxOffset {
		return 0, fmt.Errorf("lz4: internal error: offset %d out of range", offset)
	}
	if matchLen < minMatch {
		return 0, fmt.Errorf("lz4: internal error: match length %d too short", matchLen)
	}
	litLen := len(literals)
	mlCode := matchLen - minMatch

	tokenPos := di
	di++
	if litLen >= 15 {
		dst[tokenPos] = 15 << 4
		di = putLenExt(dst, di, litLen-15)
	} else {
		dst[tokenPos] = byte(litLen) << 4
	}
	di += copy(dst[di:], literals)
	dst[di] = byte(offset)
	dst[di+1] = byte(offset >> 8)
	di += 2
	if mlCode >= 15 {
		dst[tokenPos] |= 15
		di = putLenExt(dst, di, mlCode-15)
	} else {
		dst[tokenPos] |= byte(mlCode)
	}
	return di, nil
}

// emitLastLiterals writes the trailing literals-only sequence.
func emitLastLiterals(dst []byte, di int, literals []byte) (int, error) {
	litLen := len(literals)
	tokenPos := di
	di++
	if litLen >= 15 {
		dst[tokenPos] = 15 << 4
		di = putLenExt(dst, di, litLen-15)
	} else {
		dst[tokenPos] = byte(litLen) << 4
	}
	di += copy(dst[di:], literals)
	return di, nil
}

// putLenExt writes the 255-run length extension encoding of v.
func putLenExt(dst []byte, di, v int) int {
	for v >= 255 {
		dst[di] = 255
		di++
		v -= 255
	}
	dst[di] = byte(v)
	return di + 1
}

// Ratio returns origSize/compSize, the figure of merit the middle tier
// tracks per block (>=1 means the block shrank).
func Ratio(origSize, compSize int) float64 {
	if compSize <= 0 {
		return 0
	}
	return float64(origSize) / float64(compSize)
}
