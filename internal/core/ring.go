package core

// ring is a FIFO over a reused backing array: push at the tail, pop at
// the head, doubling when full. The Split module's per-QP descriptor
// and message queues drain and refill every message, so a sliced queue
// would reallocate as its head advanced.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// pop removes the head; the ring must not be empty. The vacated slot
// is zeroed so the ring pins nothing it no longer holds.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}
