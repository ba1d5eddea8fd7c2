package verifyio

import (
	"testing"
	"unsafe"

	"verifyio/internal/conflict"
	"verifyio/internal/match"
	"verifyio/internal/trace"
)

// TestHotStructSizes pins the structs a trace holds one of per record, per
// data operation or per sync edge: their bytes land almost one for one in a
// run's peak RSS, so growing one is a decision, not a side effect.
func TestHotStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"trace.Record", unsafe.Sizeof(trace.Record{}), 88},
		{"conflict.Op", unsafe.Sizeof(conflict.Op{}), 32},
		{"match.Edge", unsafe.Sizeof(match.Edge{}), 16},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.max)
		}
	}
	if n := unsafe.Sizeof(trace.Ref{}); n != 8 {
		t.Errorf("trace.Ref is %d bytes, want 8", n)
	}
}
