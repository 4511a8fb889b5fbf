package blockstore

// Geometry captures the paper's address hierarchy: a virtual disk is
// carved into segments (32 GB), each segment into chunks (64 MB), each
// I/O targets one block (4 KB) within a chunk.
type Geometry struct {
	BlockSize    int
	ChunkBytes   int64
	SegmentBytes int64
}

// DefaultGeometry returns the paper's sizes.
func DefaultGeometry() Geometry {
	return Geometry{
		BlockSize:    4096,
		ChunkBytes:   64 << 20,
		SegmentBytes: 32 << 30,
	}
}

// BlocksPerChunk returns how many blocks fit a chunk.
func (g Geometry) BlocksPerChunk() int64 { return g.ChunkBytes / int64(g.BlockSize) }

// ChunksPerSegment returns how many chunks fit a segment.
func (g Geometry) ChunksPerSegment() int64 { return g.SegmentBytes / g.ChunkBytes }

// Location is a fully resolved block address.
type Location struct {
	SegmentID uint64
	ChunkID   uint32
	BlockOff  uint32
}

// Resolve maps a logical block address (in blocks) to its location.
func (g Geometry) Resolve(lba uint64) Location {
	blocksPerChunk := uint64(g.BlocksPerChunk())
	chunksPerSeg := uint64(g.ChunksPerSegment())
	chunkIdx := lba / blocksPerChunk
	return Location{
		SegmentID: chunkIdx / chunksPerSeg,
		ChunkID:   uint32(chunkIdx % chunksPerSeg),
		BlockOff:  uint32(lba % blocksPerChunk),
	}
}
