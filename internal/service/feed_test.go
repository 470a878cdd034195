package service

import (
	"testing"
	"time"
)

// TestFeed checks the fan-out contract both SSE streams rely on: a
// subscriber with a full buffer never blocks publish, a late subscriber
// gets the latest value, and unsubscribe stops delivery.
func TestFeed(t *testing.T) {
	var f feed[int] // the zero value is ready to use
	if v := f.latest(); v != 0 {
		t.Fatalf("latest of an empty feed = %d", v)
	}
	id, ch, last := f.subscribe()
	if last != 0 {
		t.Fatalf("first subscriber's latest = %d, want 0", last)
	}

	// Nobody reads ch: publishing far past its buffer must not block.
	const n = 100
	published := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			f.publish(i)
		}
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a subscriber with a full buffer")
	}
	if got := len(ch); got != cap(ch) {
		t.Fatalf("stalled subscriber holds %d values, want its full buffer of %d", got, cap(ch))
	}
	if v := <-ch; v != 1 {
		t.Fatalf("first delivered value = %d, want 1 (later values drop)", v)
	}

	_, _, last = f.subscribe()
	if last != n || f.latest() != n {
		t.Fatalf("late subscriber's latest = %d, latest() = %d; want %d", last, f.latest(), n)
	}

	f.unsubscribe(id)
	for len(ch) > 0 {
		<-ch
	}
	f.publish(n + 1)
	select {
	case v := <-ch:
		t.Fatalf("unsubscribed channel received %d", v)
	default:
	}
}
