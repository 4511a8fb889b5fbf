// Package blockstore defines the disaggregated block storage protocol:
// the 64-byte block-storage header every request and reply carries
// (paper §2.2.1: VM id, service type, block offset, segment id, ...),
// and the LBA -> segment -> chunk address mapping (§2.1: 32 GB
// segments divided into 64 MB chunks, 4 KB I/O blocks).
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderSize is the fixed wire size of a block-storage header. The
// paper's AAMS example uses 64-byte headers split to the host.
const HeaderSize = 64

const headerMagic = 0x53_44_42_48 // "HBDS"

// Op is the service type.
type Op uint8

// Service types.
const (
	OpWrite Op = iota + 1
	OpRead
	OpWriteReply
	OpReadReply
	OpReplicate      // middle tier -> storage server write
	OpReplicateReply // storage server -> middle tier ack
	OpFetch          // middle tier -> storage server read
	OpFetchReply
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpWriteReply:
		return "write-reply"
	case OpReadReply:
		return "read-reply"
	case OpReplicate:
		return "replicate"
	case OpReplicateReply:
		return "replicate-reply"
	case OpFetch:
		return "fetch"
	case OpFetchReply:
		return "fetch-reply"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Header flags.
const (
	FlagLatencySensitive uint8 = 1 << iota // bypass compression (§4.3)
	FlagCompressed                         // payload is an LZ4 frame
)

// Status codes for replies.
type Status uint8

// Reply statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusCorrupt
	StatusError
)

// Header is the block-storage header preceding every payload.
type Header struct {
	Op         Op
	Flags      uint8
	Level      uint8 // compression effort chosen by the middle tier
	Status     Status
	VMID       uint64
	ReqID      uint64
	SegmentID  uint64
	ChunkID    uint32
	BlockOff   uint32 // block offset within the chunk, in blocks
	PayloadLen uint32
	OrigLen    uint32 // uncompressed block length
	CRC        uint32 // CRC32-C of the original block
	// Version is the middle tier's writer-assigned version of the block
	// (monotonic per middle-tier server). Replicate requests carry it so
	// storage servers can refuse regressions (a stale read-repair or
	// re-replication must never clobber a newer append); fetch replies
	// echo the stored record's version so quorum reads can pick the
	// newest replica. Zero means unversioned (legacy/maintenance
	// traffic) and disables the regression guard.
	Version uint64
}

// ErrBadHeader reports a malformed header.
var ErrBadHeader = errors.New("blockstore: malformed header")

// Encode serializes the header into a fresh 64-byte slice.
func (h *Header) Encode() []byte {
	b := make([]byte, HeaderSize)
	h.EncodeTo(b)
	return b
}

// EncodeTo serializes the header into the first HeaderSize bytes of b,
// all of them: the reserved tail is zeroed, so a reused buffer encodes
// exactly what Encode would. b must hold at least HeaderSize bytes.
func (h *Header) EncodeTo(b []byte) {
	b = b[:HeaderSize]
	binary.LittleEndian.PutUint32(b[0:], headerMagic)
	b[4] = uint8(h.Op)
	b[5] = h.Flags
	b[6] = h.Level
	b[7] = uint8(h.Status)
	binary.LittleEndian.PutUint64(b[8:], h.VMID)
	binary.LittleEndian.PutUint64(b[16:], h.ReqID)
	binary.LittleEndian.PutUint64(b[24:], h.SegmentID)
	binary.LittleEndian.PutUint32(b[32:], h.ChunkID)
	binary.LittleEndian.PutUint32(b[36:], h.BlockOff)
	binary.LittleEndian.PutUint32(b[40:], h.PayloadLen)
	binary.LittleEndian.PutUint32(b[44:], h.OrigLen)
	binary.LittleEndian.PutUint32(b[48:], h.CRC)
	binary.LittleEndian.PutUint64(b[52:], h.Version)
	clear(b[60:])
}

// Decode parses a header from the first 64 bytes of b.
func Decode(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrBadHeader
	}
	if binary.LittleEndian.Uint32(b[0:]) != headerMagic {
		return Header{}, ErrBadHeader
	}
	h := Header{
		Op:         Op(b[4]),
		Flags:      b[5],
		Level:      b[6],
		Status:     Status(b[7]),
		VMID:       binary.LittleEndian.Uint64(b[8:]),
		ReqID:      binary.LittleEndian.Uint64(b[16:]),
		SegmentID:  binary.LittleEndian.Uint64(b[24:]),
		ChunkID:    binary.LittleEndian.Uint32(b[32:]),
		BlockOff:   binary.LittleEndian.Uint32(b[36:]),
		PayloadLen: binary.LittleEndian.Uint32(b[40:]),
		OrigLen:    binary.LittleEndian.Uint32(b[44:]),
		CRC:        binary.LittleEndian.Uint32(b[48:]),
		Version:    binary.LittleEndian.Uint64(b[52:]),
	}
	if h.Op < OpWrite || h.Op > OpFetchReply {
		return Header{}, ErrBadHeader
	}
	return h, nil
}

// Message assembles header + payload into one wire buffer.
func Message(h *Header, payload []byte) []byte {
	h.PayloadLen = uint32(len(payload))
	return SizedMessage(*h, payload, h.PayloadLen)
}

// SizedMessage is Message for a payload of size bytes that carries
// payload's bytes, none for a modeled payload: the header records size.
func SizedMessage(h Header, payload []byte, size uint32) []byte {
	h.PayloadLen = size
	out := make([]byte, HeaderSize+len(payload))
	h.EncodeTo(out)
	copy(out[HeaderSize:], payload)
	return out
}

// SplitMessage separates a wire buffer into header and payload.
func SplitMessage(b []byte) (Header, []byte, error) {
	h, err := Decode(b)
	if err != nil {
		return Header{}, nil, err
	}
	if int(h.PayloadLen) != len(b)-HeaderSize {
		return Header{}, nil, fmt.Errorf("blockstore: payload length %d != %d: %w",
			h.PayloadLen, len(b)-HeaderSize, ErrBadHeader)
	}
	return h, b[HeaderSize:], nil
}
