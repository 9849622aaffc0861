package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRingKeepsMostRecent(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Emit(time.Duration(i)*time.Millisecond, GraftCommit, "p", "")
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	if evs[0].At != 2*time.Millisecond || evs[2].At != 4*time.Millisecond {
		t.Fatalf("wrong window: %v", evs)
	}
	if b.Total() != 5 {
		t.Fatalf("total = %d", b.Total())
	}
}

func TestFilterAndDump(t *testing.T) {
	b := New(10)
	b.Emit(time.Millisecond, GraftAbort, "file/1.compute-ra", "timeout")
	b.Emit(2*time.Millisecond, LockTimeout, "resourceA", "class res")
	b.Emit(3*time.Millisecond, GraftAbort, "file/2.compute-ra", "trap")
	aborts := b.Filter(GraftAbort)
	if len(aborts) != 2 {
		t.Fatalf("aborts = %v", aborts)
	}
	d := b.Dump()
	for _, want := range []string{"graft-abort", "lock-timeout", "resourceA", "timeout"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestDumpReportsDropped(t *testing.T) {
	b := New(2)
	for i := 0; i < 5; i++ {
		b.Emit(0, GraftCommit, "p", "")
	}
	if !strings.Contains(b.Dump(), "3 older events dropped") {
		t.Fatalf("dump = %q", b.Dump())
	}
}

// TestNilAndDisabledSafe: a nil buffer is the disabled recorder, and
// emitting into it is a no-op.
func TestNilAndDisabledSafe(t *testing.T) {
	var b *Buffer
	b.Emit(0, GraftCommit, "p", "") // must not panic
}

// Property: after any emission sequence, Events() is chronologically
// ordered (emissions are monotonic) and at most capacity long, and the
// newest event is always retained.
func TestPropertyRingWindow(t *testing.T) {
	f := func(n uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		b := New(capacity)
		count := int(n % 200)
		for i := 0; i < count; i++ {
			b.Emit(time.Duration(i), GraftCommit, "s", "")
		}
		evs := b.Events()
		if count == 0 {
			return len(evs) == 0
		}
		if len(evs) > capacity || len(evs) == 0 {
			return false
		}
		for i := 1; i < len(evs); i++ {
			if evs[i-1].At > evs[i].At {
				return false
			}
		}
		return evs[len(evs)-1].At == time.Duration(count-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
