package sim

// ring is a growable FIFO queue over a circular buffer. The seed engine's
// queues advanced by reslicing (`q = q[1:]` + append), which re-allocates
// the backing array forever; a ring reuses its buffer, so steady-state
// push/pop touches no heap memory. Capacity is always a power of two;
// build a ring with newRing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// newRing returns an empty ring that holds depth elements before it
// first grows.
func newRing[T any](depth int) ring[T] {
	size := 16
	for size < depth {
		size *= 2
	}
	return ring[T]{buf: make([]T, size)}
}

func (r *ring[T]) len() int { return r.n }

// push appends v, growing the buffer (in FIFO order) when full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the front element; the queue must be non-empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// peek returns the front element without removing it.
func (r *ring[T]) peek() T { return r.buf[r.head] }

func (r *ring[T]) grow() {
	buf := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
