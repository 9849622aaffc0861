// Package par runs independent jobs on a bounded set of goroutines.
// Callers store each job's result by its index, so what they merge
// afterwards does not depend on which goroutine ran which job.
package par

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on at most min(workers, n)
// goroutines and returns once every call has returned. A workers value
// below one counts as one.
func Each(workers, n int, fn func(i int)) {
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Mix derives job b's seed from master seed a with the splitmix64
// finalizer, so jobs draw independent streams whichever goroutine runs
// them.
func Mix(a, b int64) int64 {
	z := uint64(a)*0x9E3779B97F4A7C15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
