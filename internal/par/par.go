// Package par provides the one worker-pool primitive of the pipeline: run n
// independent tasks on a bounded number of goroutines, the calling goroutine
// among them. Every parallel stage of the analysis goes through it — the
// trace directory's per-rank decode, the per-rank read/replay/scan tasks and
// the overlapping detect and match finish phases of verify.Analyze, the
// per-file conflict sweep, the vector clocks' column blocks, the verification
// batches of conflict groups, and the model passes of VerifyAll.
//
// The contract that keeps results worker-count-independent lives here: the
// serial and parallel paths execute the same task function over the same
// index space, each index in isolation, so callers only need their tasks to
// be index-pure (output i depends only on input i) and their merge step to
// run in index order.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers option: 0 or negative means GOMAXPROCS.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// TaskPanic is what Do re-panics with when a task panicked: it carries the
// panic value and the stack of the goroutine that actually failed, which a
// bare re-panic on the caller's goroutine would lose.
type TaskPanic struct {
	Index int    // task index that panicked
	Value any    // original panic value
	Stack []byte // stack of the panicking goroutine
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n\noriginal stack:\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// panicRecorded, when set, runs once Do has recorded a task's panic: the
// drain test's cue that no index may be claimed from then on.
var panicRecorded func()

// Do runs fn(i) for every i in [0, n) on up to workers goroutines, claiming
// indices from an atomic cursor (cheap dynamic load balancing — task costs
// vary wildly across ranks and files). The calling goroutine is one of the
// workers: Do starts workers−1 goroutines and claims indices itself, on a
// stack the caller has already grown, and none of them outlives the call.
// With workers <= 1 or n <= 1 it degenerates to a plain loop on the calling
// goroutine.
//
// If a task panics, the pool drains (no new indices are claimed), and Do
// re-panics on the calling goroutine, once every goroutine it started has
// returned, with a *TaskPanic carrying the first panic's value and the stack
// of the goroutine it happened on.
func Do(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked atomic.Bool
	var firstPanic *TaskPanic
	run := func() {
		for {
			if panicked.Load() {
				return
			}
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() {
							firstPanic = &TaskPanic{Index: i, Value: r, Stack: debug.Stack()}
							panicked.Store(true)
							if panicRecorded != nil {
								panicRecorded()
							}
						})
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}
