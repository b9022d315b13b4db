package dataset

import (
	"runtime"
	"testing"
	"time"
)

// TestOrderedKeepsOrder: results reach use in the order next made the
// items, whatever order the workers finish them in, and every item is used.
func TestOrderedKeepsOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		k := 0
		next := func() (int, bool) { k++; return k, k <= 500 }
		work := func(i int) int {
			for range (i * 7919) % 13 { // uneven work, so workers overtake each other
				runtime.Gosched()
			}
			return i * i
		}
		var got []int
		ordered(workers, 2*workers, next, work, func(r int) bool { got = append(got, r); return true })
		if len(got) != 500 {
			t.Fatalf("%d workers: %d results, want 500", workers, len(got))
		}
		for i, r := range got {
			if r != (i+1)*(i+1) {
				t.Fatalf("%d workers: result %d is %d, want %d", workers, i, r, (i+1)*(i+1))
			}
		}
	}
}

// TestOrderedStopsEarly: once use declines, next is called at most
// inflight more times, and ordered returns with no goroutine left running.
func TestOrderedStopsEarly(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3} {
		inflight := 2 * workers
		calls, used := 0, 0
		next := func() (int, bool) { calls++; return calls, true } // an endless input
		ordered(workers, inflight, next, func(i int) int { return i }, func(int) bool {
			used++
			return used < 5
		})
		if used != 5 || calls > used+inflight {
			t.Errorf("%d workers: %d results used, next called %d times; want 5 and at most %d", workers, used, calls, used+inflight)
		}
	}
	// A goroutine that has called wg.Done may take a moment to exit.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}
