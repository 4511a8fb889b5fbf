package lz4

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
)

// Lookahead is an Encoder that can start work early. Its owner (the
// simulation's single event loop) calls Prefetch when it first holds a
// block it will compress later. Prefetched blocks become jobs, each a
// private copy of the block and its level, which queue for helper
// goroutines that encode them on otherwise idle cores. Compress returns
// a helper's result only after checking that the job's copy and level
// equal its own src and level, so its output is always exactly
// Encoder.Compress(dst, src, level): an Encoder's output is a function
// of (src, level) alone, and a block that changed after its prefetch,
// or a different level, is encoded inline instead. What the caller
// gets never depends on host timing; only how long the call takes does.
//
// At most GOMAXPROCS−1 helpers run per Lookahead, none at GOMAXPROCS=1,
// where Prefetch does nothing. A helper starts when a job is queued and
// no helper is parked, parks while the queue is empty, and exits at
// Stop. At most lookaheadJobs jobs exist, which bounds the memory a
// Lookahead holds. Prefetches beyond that wait in arrival order,
// holding only a reference to the caller's block, and take a job when
// one frees, so the jobs held are those closest to their Compress.
//
// A Lookahead has one owner: Prefetch, Compress, Forget, Stats and Stop
// must not be called concurrently. An owner done with a Lookahead must
// call Stop, or its parked helpers outlive it.
type Lookahead struct {
	maxBlock int
	enc      *Encoder // inline encoder, allocated on first use

	// Owner-only state.
	filed        map[*byte]filing // prefetched blocks by their first byte's address
	order        []fileRef        // filings in Prefetch order; order[head:] wait for a job
	head         int
	all          []*job // every job allocated, at most lookaheadJobs
	nextSeq      uint64
	maxHelps     int    // helpers allowed, read from GOMAXPROCS by Prefetch
	hits, inline uint64 // Compress calls served by a helper / encoded inline

	// Shared with the helpers, guarded by mu, as is every job's state
	// once the job has been queued.
	mu      sync.Mutex
	cond    sync.Cond  // a job was queued, Stop began, or a helper exited
	queue   []*job     // queued jobs in Prefetch order, none started yet
	spare   []*job     // jobs free for reuse
	helpers int        // helper goroutines alive
	parked  int        // helpers waiting for a job that no enqueue has signalled
	started uint64     // helper goroutines ever started
	stop    bool       // Stop is waiting for the helpers to exit
	idle    []*Encoder // encoders of exited helpers
}

// lookaheadJobs caps the jobs a Lookahead keeps. Each job holds two
// block-sized buffers. With 32 jobs helpers ran dry, and write-cpu-lz4
// gained half as much.
const lookaheadJobs = 48

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
	jobClaimed jobState = iota // free, or held by the owner; helpers never see it
	jobQueued                  // in the queue, no helper has started it
	jobRunning                 // a helper is encoding it
	jobDone                    // a helper's result is in out[:n]
)

// job is one block to encode. The queue holds exactly the queued jobs,
// so a released job is reused only when no helper may start or run it.
type job struct {
	state    jobState
	released bool // the owner let go while a helper ran it
	level    Level
	in       []byte // private copy of the block
	out      []byte // CompressBound(len(in)) bytes
	n        int
	err      error
}

// LookaheadStats is a snapshot of one Lookahead's helper work.
type LookaheadStats struct {
	Helpers int    // helper goroutines alive
	Queued  int    // jobs queued that no helper has started
	Running int    // jobs a helper is encoding
	Started uint64 // helper goroutines ever started
	Hits    uint64 // Compress calls served from a helper's result
	Inline  uint64 // Compress calls encoded on the owner
}

// Stats returns the Lookahead's helper counters.
func (la *Lookahead) Stats() LookaheadStats {
	la.lock()
	defer la.mu.Unlock()
	s := LookaheadStats{Helpers: la.helpers, Started: la.started, Hits: la.hits, Inline: la.inline}
	for _, j := range la.all {
		switch j.state {
		case jobQueued:
			s.Queued++
		case jobRunning:
			s.Running++
		}
	}
	return s
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
// free, and queues each for the helpers.
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
		la.enqueue(j)
	}
	// Compact the order once its dead prefix dominates.
	if n := len(la.order) - la.head; la.head > 64 && la.head >= n {
		copy(la.order, la.order[la.head:])
		clear(la.order[n:])
		la.order, la.head = la.order[:n], 0
	}
}

// spareJob returns a free job, or nil when all lookaheadJobs are in use.
func (la *Lookahead) spareJob() *job {
	la.lock()
	defer la.mu.Unlock()
	if n := len(la.spare); n > 0 {
		j := la.spare[n-1]
		la.spare = la.spare[:n-1]
		return j
	}
	if len(la.all) < lookaheadJobs {
		j := new(job)
		la.all = append(la.all, j)
		return j
	}
	return nil
}

// enqueue queues j for the helpers. A parked helper is woken for it;
// with none parked, a helper starts while fewer than maxHelps run.
func (la *Lookahead) enqueue(j *job) {
	la.lock()
	defer la.mu.Unlock()
	j.state = jobQueued
	la.queue = append(la.queue, j)
	if la.parked > 0 {
		la.parked--
		la.cond.Signal()
		return
	}
	if la.helpers >= la.maxHelps {
		return
	}
	la.helpers++
	la.started++
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

// help is a helper goroutine: it encodes queued jobs oldest first,
// parks while none is queued, and exits at Stop.
func (la *Lookahead) help(enc *Encoder) {
	la.lock()
	for !la.stop {
		if len(la.queue) == 0 {
			la.parked++
			//detcheck:simblock a parked helper runs no simulated code; enqueue and Stop wake it, and the owner never waits for it
			la.cond.Wait()
			continue
		}
		j := la.queue[0]
		la.queue = slices.Delete(la.queue, 0, 1)
		j.state = jobRunning
		la.mu.Unlock()
		j.n, j.err = enc.Compress(j.out, j.in, j.level)
		la.lock()
		j.state = jobDone
		if j.released {
			j.state, j.released = jobClaimed, false
			la.spare = append(la.spare, j)
		}
	}
	la.helpers--
	la.idle = append(la.idle, enc)
	la.cond.Broadcast() // Stop waits for the last helper
	la.mu.Unlock()
}

// release gives back job j, whose filing is gone, and reports whether
// j held a helper's result. A job a helper is still encoding goes back
// to spare when that helper finishes; any other goes back at once, and
// a queued one leaves the queue so no helper starts it. A released job is reused only by
// the owner's next promote, so its result stays readable until then.
func (la *Lookahead) release(j *job) (done bool) {
	la.lock()
	defer la.mu.Unlock()
	switch j.state {
	case jobRunning:
		j.released = true
		return false
	case jobQueued:
		i := slices.Index(la.queue, j)
		la.queue = slices.Delete(la.queue, i, i+1)
	}
	done = j.state == jobDone
	j.state = jobClaimed
	la.spare = append(la.spare, j)
	return done
}

// Compress compresses src into dst at the given level, exactly as
// Encoder.Compress does. A job prefetched from src's buffer is used
// only when its copy and level match and a helper has finished it;
// otherwise the block is encoded inline. The owner never waits for a
// helper: a job still queued or running is left like an unstarted one.
// Waiting instead, by sleeping on a condition (about 150 µs per wait on
// a 2-core machine) or by polling a flag, was no faster end to end
// (DESIGN.md, "Codec lookahead").
func (la *Lookahead) Compress(dst, src []byte, level Level) (int, error) {
	if len(src) > 0 && len(la.filed) > 0 {
		if f, ok := la.filed[&src[0]]; ok {
			delete(la.filed, &src[0])
			if j := f.j; j != nil {
				match := j.level == level && len(dst) >= CompressBound(len(src)) && bytes.Equal(j.in, src)
				if la.release(j) && match {
					n, err := j.n, j.err
					copy(dst, j.out[:n])
					la.promote()
					la.hits++
					return n, err
				}
				la.promote()
			}
		}
	}
	if la.enc == nil {
		la.enc = NewEncoder(la.maxBlock)
	}
	la.inline++
	return la.enc.Compress(dst, src, level)
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

// Stop returns the Lookahead to its idle state: it claims every queued
// job, waits for every job a helper is encoding and for every helper to
// exit, and drops all filings. Later Prefetches start afresh.
func (la *Lookahead) Stop() {
	la.lock()
	la.queue = la.queue[:0]
	la.stop = true
	la.cond.Broadcast()
	for la.helpers > 0 {
		la.cond.Wait()
	}
	la.stop, la.parked = false, 0
	// No helper is left: every job is free again.
	for _, j := range la.all {
		j.state, j.released = jobClaimed, false
	}
	la.spare = append(la.spare[:0], la.all...)
	la.mu.Unlock()
	clear(la.filed)
	clear(la.order)
	la.order, la.head = la.order[:0], 0
}
