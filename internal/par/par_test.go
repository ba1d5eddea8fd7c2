package par

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCoversIndexSpace(t *testing.T) {
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		const n = 100
		var hits [n]atomic.Int32
		Do(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoPanicPropagatesOriginalStack(t *testing.T) {
	sentinel := errors.New("task exploded")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *TaskPanic", r)
		}
		if tp.Value != sentinel {
			t.Fatalf("panic value = %v, want sentinel", tp.Value)
		}
		if tp.Index != 13 {
			t.Fatalf("panic index = %d, want 13", tp.Index)
		}
		// The captured stack must point at the panicking task function, not
		// at Do's caller.
		if !strings.Contains(string(tp.Stack), "explodingTask") {
			t.Fatalf("stack lost goroutine identity:\n%s", tp.Stack)
		}
		if !errors.Is(tp, sentinel) {
			t.Fatal("TaskPanic does not unwrap to the original error")
		}
	}()
	Do(4, 64, func(i int) {
		if i == 13 {
			explodingTask(sentinel)
		}
	})
}

// explodingTask exists so the test can assert the panicking frame survives
// into TaskPanic.Stack.
func explodingTask(err error) { panic(err) }

// goroutineID returns the id of the calling goroutine, from its stack header
// ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestDoCallerSharePanics: the calling goroutine runs a share of the tasks,
// and a panic there is reported like one on a started goroutine — a
// *TaskPanic with the task's index and a stack that names the task.
func TestDoCallerSharePanics(t *testing.T) {
	caller := goroutineID()
	sentinel := errors.New("caller's task exploded")
	// Two tasks on two goroutines that wait for each other: each goroutine
	// claims exactly one index, so the caller runs one of them.
	var started sync.WaitGroup
	started.Add(2)
	var callerTask atomic.Int64
	callerTask.Store(-1)
	defer func() {
		tp, ok := recover().(*TaskPanic)
		if !ok {
			t.Fatal("no *TaskPanic from the caller's share")
		}
		if want := callerTask.Load(); want < 0 || int64(tp.Index) != want {
			t.Fatalf("panic index = %d, the caller ran task %d", tp.Index, want)
		}
		if tp.Value != sentinel || !strings.Contains(string(tp.Stack), "explodingTask") {
			t.Fatalf("panic %v lost its value or its stack:\n%s", tp.Value, tp.Stack)
		}
	}()
	Do(2, 2, func(i int) {
		started.Done()
		started.Wait()
		if goroutineID() == caller {
			callerTask.Store(int64(i))
			explodingTask(sentinel)
		}
	})
}

// TestDoLeavesNoGoroutine: every goroutine Do starts is gone once it returns,
// whether the tasks finished or one panicked.
func TestDoLeavesNoGoroutine(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		before := runtime.NumGoroutine()
		Do(workers, 100, func(int) {})
		func() {
			defer func() { recover() }()
			Do(workers, 100, func(i int) {
				if i == 50 {
					panic("stop")
				}
			})
		}()
		for wait := time.Millisecond; runtime.NumGoroutine() > before; wait *= 2 {
			if wait > time.Second {
				t.Fatalf("workers=%d: %d goroutines before Do, %d after", workers, before, runtime.NumGoroutine())
			}
			time.Sleep(wait)
		}
	}
}

func TestDoPanicDrainsPool(t *testing.T) {
	// After the first panic the pool must stop claiming new indices (drain),
	// not run the remaining tasks. Non-panicking tasks block until the panic
	// has been recorded, so the claimed count does not depend on which
	// worker the scheduler favours: each worker — the calling goroutine
	// included — claims at most one index.
	const workers, n = 2, 1000
	recorded := make(chan struct{})
	panicRecorded = func() { close(recorded) }
	defer func() { panicRecorded = nil }()
	var claimed atomic.Int64
	var mu sync.Mutex
	perGoroutine := make(map[string]int)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed")
			}
		}()
		Do(workers, n, func(i int) {
			claimed.Add(1)
			mu.Lock()
			perGoroutine[goroutineID()]++
			mu.Unlock()
			if i == 0 {
				panic("stop")
			}
			<-recorded
		})
	}()
	if got := claimed.Load(); got < 1 || got > workers {
		t.Fatalf("pool claimed %d of %d tasks around the panic, want 1..%d", got, n, workers)
	}
	for id, got := range perGoroutine {
		if got > 1 {
			t.Fatalf("goroutine %s claimed %d tasks around the panic, want at most 1", id, got)
		}
	}
}

func TestResolve(t *testing.T) {
	if Resolve(0) != runtime.GOMAXPROCS(0) || Resolve(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("Resolve(<=0) != GOMAXPROCS")
	}
	if Resolve(5) != 5 {
		t.Fatal("Resolve(5) != 5")
	}
}
