package lz4

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
)

// Lookahead is an Encoder that can start work early. Its owner (the
// simulation's single event loop) calls Prefetch when it first holds a
// block it will compress later. Prefetched blocks become jobs, each a
// private copy of the block and its level, and batches of jobs go to
// helper goroutines that encode them on otherwise idle cores. Compress
// returns a helper's result only after checking that the job's copy and
// level equal its own src and level, so its output is always exactly
// Encoder.Compress(dst, src, level): an Encoder's output is a function
// of (src, level) alone, and a block that changed after its prefetch,
// or a different level, is encoded inline instead. What the caller
// gets never depends on host timing; only how long the call takes does.
//
// At most GOMAXPROCS−1 helpers run per Lookahead. They start when a
// batch is handed off and exit as soon as none is queued, and at
// GOMAXPROCS=1 Prefetch does nothing. At most lookaheadJobs jobs exist,
// which bounds the memory a Lookahead holds. Prefetches beyond that
// wait in arrival order, holding only a reference to the caller's
// block, and take a job when one frees, so the jobs held are those
// closest to their Compress. Stop waits out every running job and
// drops the rest.
//
// A Lookahead has one owner: Prefetch, Compress, Forget and Stop must
// not be called concurrently.
type Lookahead struct {
	maxBlock int
	enc      *Encoder // inline encoder, allocated on first use

	// Owner-only state.
	filed    map[*byte]filing // prefetched blocks by their first byte's address
	order    []fileRef        // filings in Prefetch order; order[head:] wait for a job
	head     int
	cur      []*job // batch being filled, not yet handed off
	all      []*job // every job allocated, at most lookaheadJobs
	nextSeq  uint64
	maxHelps int // helpers allowed, read from GOMAXPROCS by Prefetch

	// Shared with the helpers, guarded by mu, as is every job's state
	// once the job has been handed off.
	mu      sync.Mutex
	cond    sync.Cond  // a helper exited
	queue   [][]*job   // batches handed off, not yet taken by a helper
	batches [][]*job   // emptied batch slices for reuse
	spare   []*job     // jobs free for reuse
	freed   []*job     // jobs released while running, freed by their helper
	helpers int        // helper goroutines alive
	idle    []*Encoder // encoders of exited helpers
}

const (
	// lookaheadBatch is the number of jobs that wake a helper. Starting
	// one costs host time on both cores (a futex wake, a scheduler
	// steal, the exit), so it is paid once per 16 blocks. A helper
	// already running takes jobs as they come.
	lookaheadBatch = 16
	// lookaheadJobs caps the jobs a Lookahead keeps: three batches, so
	// one can fill while helpers encode the next and the owner consumes
	// the oldest. Each job holds two block-sized buffers. With two
	// batches helpers ran dry, and write-cpu-lz4 gained half as much.
	lookaheadJobs = 3 * lookaheadBatch
)

// filing is one Prefetch: the caller's block, copied when a job frees,
// and the job once it has one.
type filing struct {
	seq   uint64 // Prefetch's ticket
	src   []byte
	level Level
	j     *job // nil while waiting for a job
}

// fileRef names a filing in Prefetch order; it is stale once the
// filing under key has another seq or is gone.
type fileRef struct {
	key *byte
	seq uint64
}

// jobState is where a job stands.
type jobState uint8

const (
	jobPending jobState = iota // in the owner's batch, not yet handed off
	jobQueued                  // handed off, no helper has started it
	jobRunning                 // a helper is encoding it
	jobDone                    // a helper's result is in out[:n]
	jobClaimed                 // the owner took it back; helpers skip it
)

// job is one block to encode. A released job is reused only while no
// helper may start or run it (not queued, not running); a handed-off
// batch may still list it, but a helper acts only on queued jobs, so
// it sees a reused job either as foreign work it may do or as one to
// skip.
type job struct {
	state    jobState
	released bool // the owner let go while a helper ran it
	level    Level
	in       []byte // private copy of the block
	out      []byte // CompressBound(len(in)) bytes
	n        int
	err      error
}

// LookaheadStats is a process-wide snapshot of every Lookahead's
// helper work.
type LookaheadStats struct {
	Helpers int64  // helper goroutines alive
	Queued  int64  // jobs handed off that no helper has started or skipped
	Running int64  // jobs a helper is encoding
	Started uint64 // helper goroutines ever started
	Hits    uint64 // Compress calls served from a helper's result
	Inline  uint64 // Compress calls encoded on the owner
}

var stats struct {
	helpers, queued, running atomic.Int64
	started, hits, inline    atomic.Uint64
}

// ReadLookaheadStats returns the process-wide helper counters.
func ReadLookaheadStats() LookaheadStats {
	return LookaheadStats{
		Helpers: stats.helpers.Load(), Queued: stats.queued.Load(), Running: stats.running.Load(),
		Started: stats.started.Load(), Hits: stats.hits.Load(), Inline: stats.inline.Load(),
	}
}

// lock takes mu, the one lock the owner shares with the helpers. They
// hold it only for job and queue bookkeeping, never across an encode,
// so the owner waits for a few instructions at most.
func (la *Lookahead) lock() {
	//detcheck:simblock bounded host-side wait: helpers hold mu only for bookkeeping, never while encoding
	la.mu.Lock()
}

// NewLookahead returns a Lookahead for blocks up to maxBlock bytes
// (larger ones still work, as with NewEncoder).
func NewLookahead(maxBlock int) *Lookahead {
	la := &Lookahead{maxBlock: maxBlock, filed: make(map[*byte]filing)}
	la.cond.L = &la.mu
	return la
}

// Prefetch files src, to be compressed at level, for a later Compress
// of the same bytes, and returns the filing's ticket for Forget (0 when
// nothing was filed). The block is read again when it gets a job, so
// the caller must keep src alive until it calls Compress or Forget. A
// newer Prefetch of the same buffer replaces the older one.
func (la *Lookahead) Prefetch(src []byte, level Level) uint64 {
	if len(src) < mfLimit+minMatch || !level.Valid() {
		return 0 // inline work is trivial, or Compress rejects the level
	}
	// GOMAXPROCS(0) only reads the setting; it sizes the helper pool.
	if la.maxHelps = runtime.GOMAXPROCS(0) - 1; la.maxHelps < 1 {
		return 0
	}
	key := &src[0]
	la.drop(key)
	la.nextSeq++
	la.filed[key] = filing{seq: la.nextSeq, src: src, level: level}
	la.order = append(la.order, fileRef{key, la.nextSeq})
	la.promote()
	return la.nextSeq
}

// drop removes the filing under key, releasing its job.
func (la *Lookahead) drop(key *byte) {
	if f, ok := la.filed[key]; ok {
		delete(la.filed, key)
		if f.j != nil {
			la.release(f.j)
		}
	}
}

// promote gives waiting filings jobs, oldest first, while jobs are
// free, handing off each batch that fills.
func (la *Lookahead) promote() {
	for la.head < len(la.order) {
		r := la.order[la.head]
		f, ok := la.filed[r.key]
		if !ok || f.seq != r.seq {
			la.head++ // consumed, forgotten or replaced
			continue
		}
		j := la.spareJob()
		if j == nil {
			break
		}
		la.head++
		j.level = f.level
		j.in = append(j.in[:0], f.src...)
		if bound := CompressBound(len(f.src)); cap(j.out) < bound {
			j.out = make([]byte, bound)
		}
		j.out = j.out[:cap(j.out)]
		f.j = j
		la.filed[r.key] = f
		la.cur = append(la.cur, j)
		if len(la.cur) == lookaheadBatch {
			la.handoff()
		}
	}
	if len(la.cur) > 0 {
		// A running helper takes more work without a wake-up, so a
		// partial batch goes to it at once.
		la.lock()
		if la.helpers > 0 {
			la.handoffLocked()
		}
		la.mu.Unlock()
	}
	// Compact the order once its dead prefix dominates.
	if n := len(la.order) - la.head; la.head > 64 && la.head >= n {
		copy(la.order, la.order[la.head:])
		clear(la.order[n:])
		la.order, la.head = la.order[:n], 0
	}
}

// spareJob returns a free job marked pending, or nil when all
// lookaheadJobs are in use.
func (la *Lookahead) spareJob() *job {
	la.lock()
	defer la.mu.Unlock()
	if len(la.spare) == 0 {
		la.spare = append(la.spare, la.freed...)
		clear(la.freed)
		la.freed = la.freed[:0]
	}
	var j *job
	if n := len(la.spare); n > 0 {
		j = la.spare[n-1]
		la.spare = la.spare[:n-1]
	} else if len(la.all) < lookaheadJobs {
		j = new(job)
		la.all = append(la.all, j)
	} else {
		return nil
	}
	j.state = jobPending
	return j
}

// handoff queues the current batch for the helpers.
func (la *Lookahead) handoff() {
	la.lock()
	la.handoffLocked()
	la.mu.Unlock()
}

// handoffLocked queues the current batch, starting a helper if fewer
// than maxHelps run. mu is held.
func (la *Lookahead) handoffLocked() {
	b := la.cur
	la.cur = nil
	if n := len(la.batches); n > 0 {
		la.cur = la.batches[n-1]
		la.batches = la.batches[:n-1]
	}
	queued := 0
	for _, j := range b {
		if j.state == jobPending {
			j.state = jobQueued
			queued++
		}
	}
	stats.queued.Add(int64(queued))
	la.queue = append(la.queue, b)
	if la.helpers >= la.maxHelps {
		return
	}
	la.helpers++
	stats.helpers.Add(1)
	stats.started.Add(1)
	var enc *Encoder
	if n := len(la.idle); n > 0 {
		enc = la.idle[n-1]
		la.idle = la.idle[:n-1]
	} else {
		enc = NewEncoder(la.maxBlock)
	}
	//detcheck:spawn codec helper: encodes private copies of prefetched blocks and Compress verifies each result, so no simulated state depends on it
	go la.help(enc)
}

// help is a helper goroutine: it encodes queued jobs batch by batch and
// exits when the queue is empty.
func (la *Lookahead) help(enc *Encoder) {
	la.lock()
	for len(la.queue) > 0 {
		b := la.queue[0]
		la.queue = append(la.queue[:0], la.queue[1:]...)
		for _, j := range b {
			if j.state != jobQueued {
				continue
			}
			j.state = jobRunning
			stats.queued.Add(-1)
			stats.running.Add(1)
			la.mu.Unlock()
			j.n, j.err = enc.Compress(j.out, j.in, j.level)
			la.lock()
			j.state = jobDone
			stats.running.Add(-1)
			if j.released {
				j.released = false
				la.freed = append(la.freed, j)
			}
		}
		clear(b)
		la.batches = append(la.batches, b[:0])
	}
	la.helpers--
	stats.helpers.Add(-1)
	la.idle = append(la.idle, enc)
	la.cond.Broadcast() // Stop waits for the last helper
	la.mu.Unlock()
}

// release gives back job j, whose filing is gone. A queued or pending
// job is claimed so no helper starts it; a running one is freed by its
// helper.
func (la *Lookahead) release(j *job) {
	la.lock()
	defer la.mu.Unlock()
	switch j.state {
	case jobRunning:
		j.released = true
		return
	case jobQueued:
		stats.queued.Add(-1)
	}
	j.state = jobClaimed
	la.spare = append(la.spare, j)
}

// Compress compresses src into dst at the given level, exactly as
// Encoder.Compress does. A job prefetched from src's buffer is used
// only when its copy and level match and a helper has finished it;
// otherwise the block is encoded inline.
func (la *Lookahead) Compress(dst, src []byte, level Level) (int, error) {
	if len(src) > 0 && len(la.filed) > 0 {
		if f, ok := la.filed[&src[0]]; ok {
			delete(la.filed, &src[0])
			if j := f.j; j != nil {
				if j.level == level && len(dst) >= CompressBound(len(src)) && bytes.Equal(j.in, src) && la.done(j) {
					n, err := j.n, j.err
					copy(dst, j.out[:n])
					la.release(j)
					la.promote()
					stats.hits.Add(1)
					return n, err
				}
				la.release(j)
				la.promote()
			}
		}
	}
	if la.enc == nil {
		la.enc = NewEncoder(la.maxBlock)
	}
	stats.inline.Add(1)
	return la.enc.Compress(dst, src, level)
}

// done reports whether j holds a helper's result. A job no helper has
// started is claimed back; one still in the owner's batch sends the
// rest of that batch off, if any, since its neighbours are due soon
// too. A job a helper is still encoding is treated like an unstarted
// one: the owner encodes the block itself and leaves the job to its
// helper. Waiting for the helper instead, by sleeping on a condition
// (about 150 µs per wait on a 2-core machine) or by polling a flag, was
// no faster end to end (DESIGN.md, "Codec lookahead").
func (la *Lookahead) done(j *job) bool {
	la.lock()
	defer la.mu.Unlock()
	switch j.state {
	case jobPending:
		j.state = jobClaimed
		for _, o := range la.cur {
			if o.state == jobPending {
				la.handoffLocked()
				break
			}
		}
	case jobQueued:
		j.state = jobClaimed
		stats.queued.Add(-1)
	}
	return j.state == jobDone
}

// Forget drops the filing Prefetch made for src under ticket seq, if it
// is still filed: the block will not be compressed after all.
func (la *Lookahead) Forget(src []byte, seq uint64) {
	if seq == 0 || len(src) == 0 {
		return
	}
	if f, ok := la.filed[&src[0]]; ok && f.seq == seq {
		la.drop(&src[0])
		la.promote()
	}
}

// Stop returns the Lookahead to its idle state: it waits for every job
// a helper is encoding and for every helper to exit, and drops all
// filings. Later Prefetches start afresh.
func (la *Lookahead) Stop() {
	la.lock()
	for _, j := range la.all {
		if j.state == jobQueued {
			j.state = jobClaimed
			stats.queued.Add(-1)
		}
	}
	for la.helpers > 0 {
		la.cond.Wait()
	}
	// No helper is left: every job is free again.
	for _, b := range la.queue {
		clear(b)
		la.batches = append(la.batches, b[:0])
	}
	la.queue = la.queue[:0]
	for _, j := range la.all {
		j.state, j.released = jobClaimed, false
	}
	la.spare = append(la.spare[:0], la.all...)
	clear(la.freed)
	la.freed = la.freed[:0]
	la.mu.Unlock()
	clear(la.cur)
	la.cur = la.cur[:0]
	clear(la.filed)
	clear(la.order)
	la.order, la.head = la.order[:0], 0
}
