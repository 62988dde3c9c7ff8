package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every figure in §6 is a sweep over independent points — each point builds
// a fresh platform around its own private sim.Kernel, so points share no
// simulation state and can execute on separate goroutines without touching
// the determinism argument (each kernel is still single-threaded). points
// is the fan-out primitive every runner uses; Options.Par bounds the
// worker pool (the CLI's -par flag).

// workers reports the session's effective worker bound.
func (s *Session) workers() int {
	if s.o.Par > 0 {
		return s.o.Par
	}
	return runtime.GOMAXPROCS(0)
}

// points runs f(0), ..., f(n-1) across a bounded worker pool and returns
// the lowest-index error, if any. Each call to f must write its result into
// its own index of a caller-owned slice — results are therefore collected
// in declaration order no matter which worker ran which point, which keeps
// rendered tables byte-identical at any parallelism level.
//
// f must not touch state shared with other points except through
// single-flight caches (the session's memo, rsCode); every worker runs
// points to completion, so f may freely own goroutine-local simulations.
func (s *Session) points(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := s.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				errs[i] = f(int(i))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// grid linearizes a 2D sweep: it runs f for every (row, col) pair of an
// rows×cols grid through points, so row-major tables parallelize without
// each runner repeating the index arithmetic.
func (s *Session) grid(rows, cols int, f func(r, c int) error) error {
	return s.points(rows*cols, func(i int) error {
		return f(i/cols, i%cols)
	})
}
