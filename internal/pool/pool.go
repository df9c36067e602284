// Package pool is the one worker-pool primitive shared by every
// concurrent pass in the repository (the span decode pipeline, the
// sharded simulator passes, sweep cells, explore passes). It exists so that
// cancellation and panic containment are implemented once: Run checks
// the context between tasks on every worker, and every task body runs
// under a recover shim that converts a panic into a typed *PanicError
// carrying the panicking value and the goroutine stack. A worker panic
// therefore surfaces to the caller as an ordinary error instead of
// killing the process, and Run never returns before all of its
// goroutines have exited — callers can assert "no leaked goroutines"
// immediately after it returns.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PanicError is a recovered worker panic. Value is the value passed to
// panic and Stack is the panicking goroutine's stack captured at
// recovery, so the crash site is preserved even though the process
// survives.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v\n%s", e.Value, e.Stack)
}

// Protect runs fn, converting a panic into a *PanicError. It is the
// recover shim Run applies to every task; exported so pipelines with
// bespoke goroutine topologies (the span pipeline) can wrap their
// worker bodies in the same containment.
func Protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			err = &PanicError{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return fn()
}

// Run executes fn(i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS). Tasks are claimed in
// index order. After the first task error — including a recovered
// panic — or once ctx is cancelled, no new tasks start; tasks already
// running finish first, and Run returns only after every goroutine has
// exited. The returned error is the first failed task's error in index
// order (deterministic regardless of scheduling), or ctx.Err() when
// the pool stopped on cancellation alone.
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var (
		next int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := Protect(func() error { return fn(i) }); err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
