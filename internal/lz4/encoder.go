package lz4

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Encoder is the hash-chain matcher. It keeps its tables across blocks
// so hot paths (the middle tier compresses every 4 KB block of every
// write request) pay no per-block table allocation or reset.
//
// The tables hold base-offset positions, as LZ4's currentOffset does:
// position i of the current block is stored as base+i, and base
// advances past every block, so any value below base is a stale entry
// from an earlier block. Stale entries end a chain exactly as an empty
// slot would, which makes the output a function of (src, level) alone:
// one Encoder can serve any number of callers in turn. It is not safe
// for concurrent use.
type Encoder struct {
	table *[1 << hashLog]uint32 // hash -> newest position with that hash
	prev  []uint32              // position -> the entry it displaced
	base  uint32                // table value of src[0]; 0 is never valid
}

// NewEncoder returns an Encoder ready for blocks up to maxBlock bytes
// (larger inputs still work; prev grows on demand).
func NewEncoder(maxBlock int) *Encoder {
	return &Encoder{
		table: new([1 << hashLog]uint32),
		prev:  make([]uint32, max(maxBlock, 0)),
		base:  1,
	}
}

// Compress compresses src into dst at the given level and returns the
// number of bytes written. dst must be at least CompressBound(len(src))
// bytes; otherwise ErrShortBuffer is returned.
func (e *Encoder) Compress(dst, src []byte, level Level) (int, error) {
	if !level.Valid() {
		return 0, fmt.Errorf("lz4: invalid level %d", level)
	}
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrShortBuffer
	}
	if len(src) == 0 {
		dst[0] = 0 // single token: zero literals, no match
		return 1, nil
	}
	if len(src) < mfLimit+minMatch {
		return emitLastLiterals(dst, 0, src)
	}
	if len(e.prev) < len(src) {
		e.prev = make([]uint32, len(src))
	}
	if uint64(e.base)+uint64(len(src)) >= 1<<32 {
		clear(e.table[:])
		e.base = 1
	}
	n, err := e.compressBlock(dst, src, level.attempts())
	e.base += uint32(len(src))
	return n, err
}

// insert makes position i the head of its hash chain.
func (e *Encoder) insert(src []byte, i int) {
	slot := &e.table[hash4(load32(src, i))]
	e.prev[i] = *slot
	*slot = e.base + uint32(i)
}

func (e *Encoder) compressBlock(dst, src []byte, attempts int) (int, error) {
	prev, base := e.prev[:len(src)], e.base
	di := 0
	anchor := 0
	i := 0
	matchEndLimit := len(src) - lastLiterals
	searchLimit := len(src) - mfLimit

	for i <= searchLimit {
		// Find the best match among up to `attempts` chain candidates.
		cur := load32(src, i)
		slot := &e.table[hash4(cur)]
		bestLen := 0
		bestPos := -1
		for v, tries := *slot, attempts; v >= base && tries > 0; tries-- {
			c := int(v - base)
			if i-c > maxOffset {
				break // older entries are even farther away
			}
			if load32(src, c) == cur {
				l := matchLength(src, c+minMatch, i+minMatch, matchEndLimit) + minMatch
				if l > bestLen {
					bestLen = l
					bestPos = c
				}
			}
			v = prev[c]
		}
		if bestLen < minMatch {
			// Index i through the slot the lookup already loaded.
			prev[i] = *slot
			*slot = base + uint32(i)
			i++
			continue
		}

		// Extend the match backwards over pending literals.
		for i > anchor && bestPos > 0 && src[i-1] == src[bestPos-1] {
			i--
			bestPos--
			bestLen++
		}

		var err error
		di, err = emitSequence(dst, di, src[anchor:i], i-bestPos, bestLen)
		if err != nil {
			return 0, err
		}

		// Index the positions covered by the match so later data can
		// reference them, then continue after it.
		end := i + bestLen
		step := 1
		if bestLen > 4096 {
			// Long runs (e.g. zero pages) would make indexing quadratic;
			// sparse indexing preserves most of the ratio.
			step = 16
		}
		for j := i; j < end && j <= searchLimit; j += step {
			e.insert(src, j)
		}
		i = end
		anchor = i
	}
	return emitLastLiterals(dst, di, src[anchor:])
}

// matchLength counts how many bytes match between src[a:] and src[b:]
// with b < limit, eight bytes at a time.
func matchLength(src []byte, a, b, limit int) int {
	n := 0
	for b+8 <= limit {
		if x := binary.LittleEndian.Uint64(src[a:]) ^ binary.LittleEndian.Uint64(src[b:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		a += 8
		b += 8
		n += 8
	}
	for b < limit && src[a] == src[b] {
		a++
		b++
		n++
	}
	return n
}
