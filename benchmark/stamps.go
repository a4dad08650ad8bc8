package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// How an update is timed. Every tick k the driver moves the desktop
// cursor to stampXY(k) before Host.Tick. The host puts MousePointerInfo
// last in every batch and a participant applies in sequence order, so a
// viewer whose Participant.Pointer() reads k has applied every pixel of
// tick k. Reading the pointer is O(1); comparing frame buffers per packet
// would cost a 3 MB copy.

const (
	deskW, deskH = 1280, 1024
	// maxTicks bounds one session's tick ids. It stays below the stamp
	// of the desktop's initial cursor position (centre of the screen),
	// so a viewer painted before the first stamped tick reads no stamp.
	maxTicks = 1 << 18
)

// stampXY encodes tick k as a cursor position; stampOf inverts it. The
// pair is a bijection on [0, deskW*deskH).
func stampXY(k int) (x, y int) { return k % deskW, k / deskW }

func stampOf(x, y int) int { return y*deskW + x }

// tickClock is the table of instants each tick was due, written by the
// driver and read by every viewer.
type tickClock struct {
	base   time.Time
	due    []atomic.Int64
	issued atomic.Int64
}

func newTickClock() *tickClock {
	return &tickClock{base: time.Now(), due: make([]atomic.Int64, maxTicks)}
}

// now is monotonic nanoseconds since the clock was made.
func (c *tickClock) now() int64 { return int64(time.Since(c.base)) }

// issue publishes tick k as due at the given instant. The due time is
// stored before issued advances, so a viewer that sees k sees its due.
func (c *tickClock) issue(k int, due int64) {
	c.due[k].Store(due)
	c.issued.Store(int64(k))
}

// stampTracker turns the stamps one viewer observes into per-tick
// records. A viewer that observes stamp k has completed every tick up to
// k, so all ticks since the previous observation are released at once: a
// NACK repair or a busy receiver delivers several ticks in one step.
type stampTracker struct {
	mu   sync.Mutex
	seen bool
	last int
	// lat[k] is stamp instant minus due instant of tick k in nanoseconds,
	// 0 while k is not stamped. cum[k] is the viewer's received-byte
	// count when k was stamped. Both grow with the stamps observed: a
	// transient joiner, which stamps a handful of ticks, must not put
	// megabytes of zeroed tables into the window whose tail is measured.
	lat []int64
	cum []uint64
}

// grow makes lat[k] and cum[k] addressable.
func (t *stampTracker) grow(k int) {
	if k < len(t.lat) {
		return
	}
	n := max(2*len(t.lat), k+1)
	t.lat = append(t.lat, make([]int64, n-len(t.lat))...)
	t.cum = append(t.cum, make([]uint64, n-len(t.cum))...)
}

// observe records that the viewer read stamp k at instant now with
// cumBytes received so far, and reports how many ticks that released.
// The first stamp a viewer reads only anchors it: ticks before a join
// were never owed to this viewer.
func (t *stampTracker) observe(k int, now int64, cumBytes uint64, clock *tickClock) int {
	if k <= 0 || k >= maxTicks || int64(k) > clock.issued.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grow(k)
	if !t.seen {
		t.seen, t.last = true, k
		t.cum[k] = cumBytes
		return 0
	}
	n := 0
	for j := t.last + 1; j <= k; j++ {
		t.lat[j] = max(now-clock.due[j].Load(), 1)
		t.cum[j] = cumBytes
		n++
	}
	if k > t.last {
		t.last = k
	}
	return n
}

// reached reports whether the viewer has stamped tick k.
func (t *stampTracker) reached(k int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen && t.last >= k
}

// window copies the records of ticks [from, to].
func (t *stampTracker) window(from, to int) (lat []int64, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat = make([]int64, to-from+1)
	if from < len(t.lat) {
		copy(lat, t.lat[from:]) // ticks beyond the last stamp stay 0
	}
	// Bytes between the stamp that closed the window's predecessor and
	// the stamp that closed the window: exactly the window's datagrams.
	if end := min(to, t.last); t.seen && end >= from {
		bytes = t.cum[end] - t.cum[from-1]
	}
	return lat, bytes
}
