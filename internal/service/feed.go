package service

import "sync"

// feed fans a stream of values out to live subscribers — a job's interval
// events, a sweep's summary frames — and keeps the latest for late
// joiners. The zero value is ready to use and allocates nothing until the
// first subscriber arrives.
type feed[T any] struct {
	mu     sync.Mutex
	last   T
	subs   map[int]chan T
	nextID int
}

// publish records v as the latest value and hands it to every subscriber
// without blocking: a subscriber whose buffer is full drops it, so a slow
// client never stalls the publisher.
func (f *feed[T]) publish(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.last = v
	for _, ch := range f.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// subscribe registers a subscriber and returns its id, its channel and
// the latest value (T's zero value if nothing was published yet).
func (f *feed[T]) subscribe() (id int, ch <-chan T, last T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subs == nil {
		f.subs = make(map[int]chan T)
	}
	// 16 values ride out a burst while the SSE writer flushes; a stalled
	// client then drops values instead of stalling the publisher.
	c := make(chan T, 16)
	id = f.nextID
	f.nextID++
	f.subs[id] = c
	return id, c, f.last
}

// unsubscribe stops delivery to the subscriber id.
func (f *feed[T]) unsubscribe(id int) {
	f.mu.Lock()
	delete(f.subs, id)
	f.mu.Unlock()
}

// latest returns the most recently published value.
func (f *feed[T]) latest() T {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}
