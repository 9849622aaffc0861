package par

import (
	"sync"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnceWithinBound: every index runs exactly once,
// never on more than min(workers, n) goroutines at a time, and Each
// returns only after the last call has.
func TestEachRunsEveryIndexOnceWithinBound(t *testing.T) {
	for _, c := range []struct{ workers, n, bound int }{
		{1, 5, 1}, {3, 12, 3}, {8, 3, 3}, {0, 4, 1}, {-2, 4, 1}, {4, 0, 0},
	} {
		var mu sync.Mutex
		live, peak, done := 0, 0, 0
		hits := make([]int, c.n)
		Each(c.workers, c.n, func(i int) {
			mu.Lock()
			live++
			peak = max(peak, live)
			mu.Unlock()
			time.Sleep(time.Millisecond) // let the other workers overlap
			mu.Lock()
			live--
			hits[i]++
			done++
			mu.Unlock()
		})
		if done != c.n {
			t.Errorf("Each(%d, %d) returned after %d calls", c.workers, c.n, done)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("Each(%d, %d): index %d ran %d times", c.workers, c.n, i, h)
			}
		}
		if peak > c.bound {
			t.Errorf("Each(%d, %d): %d calls ran at once, want at most %d", c.workers, c.n, peak, c.bound)
		}
	}
}
