package par

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
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

func TestDoPanicDrainsPool(t *testing.T) {
	// After the first panic the pool must stop claiming new indices (drain),
	// not run the remaining tasks. Non-panicking tasks block until the panic
	// has been recorded, so the claimed count does not depend on which
	// worker the scheduler favours: each worker claims at most one index.
	const workers, n = 2, 1000
	recorded := make(chan struct{})
	panicRecorded = func() { close(recorded) }
	defer func() { panicRecorded = nil }()
	var claimed atomic.Int64
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed")
			}
		}()
		Do(workers, n, func(i int) {
			claimed.Add(1)
			if i == 0 {
				panic("stop")
			}
			<-recorded
		})
	}()
	if got := claimed.Load(); got < 1 || got > workers {
		t.Fatalf("pool claimed %d of %d tasks around the panic, want 1..%d", got, n, workers)
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
