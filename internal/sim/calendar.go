package sim

// This file is the event calendar: an indexed four-ary min-heap plus a
// same-instant fast lane. Together they give the scheduler its
// throughput:
//
//   - The heap is four-ary (children of i are 4i+1..4i+4), which halves
//     the tree depth versus a binary heap and touches fewer cache lines
//     per sift. Every entry tracks its own position (item.idx), so a
//     cancelled timer is removed in place in O(log4 n) instead of
//     leaking until its pop — timeout-heavy runs used to bloat the heap
//     with dead entries and skew Pending().
//   - The fast lane is a FIFO ring for entries scheduled at exactly the
//     current instant (wakes, triggers, zero-delay callbacks — the
//     dominant cascade in steady state). Because virtual time and seq
//     both only grow, lane entries are already globally sorted by
//     (t, seq), so a pop compares the lane head against the heap root
//     and takes the smaller: O(1) for same-instant work, and the total
//     (t, seq) dispatch order — the determinism contract — is
//     preserved exactly.
//
// Items are pooled on the Env. A fired or cancelled item returns to the
// free list immediately, so the steady state allocates nothing; the
// monotone seq doubles as a generation stamp that lets a stale Timer
// recognize an item that has since been recycled.

// item is a calendar entry. Entries with equal time fire in insertion
// order (seq), which keeps runs deterministic. An item carries either a
// callback (fn) or a conditional process wake (proc, gen) — the latter
// avoids allocating a closure for every Sleep and Event wake.
type item struct {
	t   Time
	seq uint64
	// idx is the entry's heap position, laneIdx while in the fast
	// lane, or freeIdx once fired, cancelled, or pooled.
	idx       int
	fn        func()
	proc      *Proc
	gen       uint64
	cancelled bool
}

const (
	freeIdx = -1 // fired, cancelled out of the lane, or pooled
	laneIdx = -2 // queued in the same-instant fast lane
)

// calLess orders calendar entries by (time, seq).
func calLess(a, b *item) bool {
	if a.t != b.t { // exact tie detection; ties fall through to the seq order
		return a.t < b.t
	}
	return a.seq < b.seq
}

// calendar is the indexed four-ary min-heap.
type calendar struct {
	items []*item
}

func (c *calendar) len() int { return len(c.items) }

func (c *calendar) push(it *item) {
	//detcheck:hotalloc amortized heap growth; capacity is retained across pops
	c.items = append(c.items, it)
	c.siftUp(len(c.items)-1, it)
}

// siftUp moves it toward the root from position i, writing it into its
// final slot exactly once (hole optimization).
func (c *calendar) siftUp(i int, it *item) {
	for i > 0 {
		pi := (i - 1) / 4
		p := c.items[pi]
		if !calLess(it, p) {
			break
		}
		c.items[i] = p
		p.idx = i
		i = pi
	}
	c.items[i] = it
	it.idx = i
}

// siftDown moves it toward the leaves from position i.
func (c *calendar) siftDown(i int, it *item) {
	n := len(c.items)
	for {
		c0 := 4*i + 1
		if c0 >= n {
			break
		}
		best, bit := c0, c.items[c0]
		hi := c0 + 4
		if hi > n {
			hi = n
		}
		for j := c0 + 1; j < hi; j++ {
			if calLess(c.items[j], bit) {
				best, bit = j, c.items[j]
			}
		}
		if !calLess(bit, it) {
			break
		}
		c.items[i] = bit
		bit.idx = i
		i = best
	}
	c.items[i] = it
	it.idx = i
}

// popMin removes and returns the earliest entry. The heap must be
// non-empty.
func (c *calendar) popMin() *item {
	it := c.items[0]
	n := len(c.items) - 1
	last := c.items[n]
	c.items[n] = nil
	c.items = c.items[:n]
	if n > 0 {
		c.siftDown(0, last)
	}
	it.idx = freeIdx
	return it
}

// remove deletes the entry at heap position i in place.
func (c *calendar) remove(i int) *item {
	it := c.items[i]
	n := len(c.items) - 1
	last := c.items[n]
	c.items[n] = nil
	c.items = c.items[:n]
	if i < n {
		c.items[i] = last
		c.fix(i)
	}
	it.idx = freeIdx
	return it
}

// fix restores heap order after the entry at position i changed its
// key (or was replaced).
func (c *calendar) fix(i int) {
	it := c.items[i]
	if i > 0 && calLess(it, c.items[(i-1)/4]) {
		c.siftUp(i, it)
	} else {
		c.siftDown(i, it)
	}
}

// lane is the same-instant FIFO ring. Entries are pushed only at the
// current virtual time, so the ring is globally sorted by (t, seq).
type lane struct {
	buf  []*item // power-of-two length
	head int
	n    int
}

func (l *lane) push(it *item) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = it
	l.n++
	it.idx = laneIdx
}

// peek returns the oldest entry. The lane must be non-empty.
func (l *lane) peek() *item { return l.buf[l.head] }

func (l *lane) pop() *item {
	it := l.buf[l.head]
	l.buf[l.head] = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	it.idx = freeIdx
	return it
}

func (l *lane) grow() {
	nc := len(l.buf) * 2
	if nc == 0 {
		nc = 64
	}
	//detcheck:hotalloc amortized doubling; grow is off the per-event path
	nb := make([]*item, nc)
	for i := 0; i < l.n; i++ {
		nb[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = nb
	l.head = 0
}
