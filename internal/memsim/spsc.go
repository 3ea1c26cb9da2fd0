package memsim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Lock-free SPSC batch queues for the sharded simulator (sharded.go).
//
// Each shard owns two rings: the router pushes full address batches into the
// shard's work ring, and the shard worker pushes spent buffers back through a
// recycle ring so the steady state allocates nothing. Both directions are
// strictly single-producer/single-consumer, which is what makes the
// wait-free fast path possible: each side owns one index, publishes it with
// a release store, and observes the other side's index with an acquire load
// (Go's sync/atomic provides the ordering). No mutex is ever taken on the
// address hot path.

// spscRing is a bounded single-producer single-consumer ring of address
// batches. The producer alone calls push/tryPush and the consumer alone
// calls pop/tryPop; head is advanced only by the consumer, tail only by the
// producer. The pads keep the two indices on separate cache lines so the
// sides do not false-share.
type spscRing struct {
	slots []([]Addr)
	mask  uint64
	_     [56]byte
	head  atomic.Uint64 // next slot to pop
	_     [56]byte
	tail  atomic.Uint64 // next slot to push
	_     [56]byte
	done  atomic.Bool

	// parked is set while a pop waits on wake; the producer then hands a
	// token to wake after publishing a slot or closing the ring.
	parked atomic.Bool
	wake   chan struct{}
}

// popSpins is how many scheduler yields an empty pop makes before it parks.
// A pipelined producer is usually only a batch away, and parking costs the
// producer a wakeup; an abandoned ring must not cost CPU at all.
const popSpins = 64

// newSPSC returns a ring with capacity rounded up to a power of two.
func newSPSC(capacity int) *spscRing {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &spscRing{slots: make([][]Addr, c), mask: uint64(c - 1), wake: make(chan struct{}, 1)}
}

// close marks the ring finished. The producer calls it after its final push;
// a blocked pop then drains the remaining slots and returns false.
func (q *spscRing) close() {
	q.done.Store(true)
	q.unpark()
}

// park blocks the consumer until the producer moves tail past head or
// closes the ring. Setting parked before re-reading tail and done, against
// the producer publishing before reading parked, means at least one side
// sees the other: either the re-read finds the new slot, or the producer
// finds parked set and hands over a token. A token left over from a race
// both sides saw only makes the next park return early.
func (q *spscRing) park(head uint64) {
	q.parked.Store(true)
	if head == q.tail.Load() && !q.done.Load() {
		<-q.wake
	}
	q.parked.Store(false)
}

// unpark wakes a parked consumer; the producer calls it after publishing.
func (q *spscRing) unpark() {
	if q.parked.Load() {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already pending
		}
	}
}

// push enqueues b, blocking while the ring is full. It reports false if the
// ring was closed instead.
func (q *spscRing) push(b []Addr) bool {
	tail := q.tail.Load()
	var w backoff
	for tail-q.head.Load() == uint64(len(q.slots)) {
		if q.done.Load() {
			return false
		}
		w.wait()
	}
	q.slots[tail&q.mask] = b
	q.tail.Store(tail + 1)
	q.unpark()
	return true
}

// tryPush enqueues b if the ring has room, reporting whether it did.
func (q *spscRing) tryPush(b []Addr) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() == uint64(len(q.slots)) || q.done.Load() {
		return false
	}
	q.slots[tail&q.mask] = b
	q.tail.Store(tail + 1)
	q.unpark()
	return true
}

// pop dequeues the next batch, blocking while the ring is empty: it yields
// popSpins times, then parks until the producer wakes it. It reports false
// once the ring is closed and fully drained.
func (q *spscRing) pop() ([]Addr, bool) {
	head := q.head.Load()
	for spins := 0; head == q.tail.Load(); spins++ {
		if q.done.Load() && head == q.tail.Load() {
			return nil, false
		}
		if spins < popSpins {
			runtime.Gosched()
			continue
		}
		q.park(head)
	}
	b := q.slots[head&q.mask]
	q.slots[head&q.mask] = nil
	q.head.Store(head + 1)
	return b, true
}

// tryPop dequeues the next batch if one is ready, reporting whether it did.
func (q *spscRing) tryPop() ([]Addr, bool) {
	head := q.head.Load()
	if head == q.tail.Load() {
		return nil, false
	}
	b := q.slots[head&q.mask]
	q.slots[head&q.mask] = nil
	q.head.Store(head + 1)
	return b, true
}

// backoff escalates a wait from scheduler yields to short sleeps, so a
// producer blocked on a full ring, or draining, stops burning its core while
// staying responsive: the worker it waits for is busy and only a batch away.
type backoff int

func (w *backoff) wait() {
	*w++
	if *w < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
