package sim

// FIFO is a growable ring-buffer queue with zero steady-state
// allocation: the backing array doubles while the queue finds its
// working depth and is then reused forever. The model layers pair one
// FIFO with one callback bound at construction time — the callback pops
// the item its firing corresponds to — which is how per-packet state is
// threaded through FIFO resources (bus, processing server, wire)
// without allocating a capturing closure per packet. Correctness relies
// on the resource completing work in issue order, which every FIFO
// server in this repository does.
type FIFO[T any] struct {
	buf  []T // power-of-two length
	head int
	size int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.size }

// Push appends v to the tail.
func (q *FIFO[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

// PushFront prepends v at the head — the "preempt but keep your turn"
// pattern (a domain re-queued ahead of waiting wakers, an interrupt's
// top half cutting ahead of queued kernel work). O(1) on the ring, no
// shifting.
func (q *FIFO[T]) PushFront(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.size++
}

// Pop removes and returns the head. Popping an empty FIFO panics: it
// means a completion fired with no matching issue, a model bug.
func (q *FIFO[T]) Pop() T {
	if q.size == 0 {
		panic("sim: Pop of empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v
}

// Peek returns the head without removing it.
func (q *FIFO[T]) Peek() T {
	if q.size == 0 {
		panic("sim: Peek of empty FIFO")
	}
	return q.buf[q.head]
}

// Clear drops all queued items, keeping the backing array.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.size; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.size = 0, 0
}

func (q *FIFO[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}
