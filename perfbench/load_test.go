package main

import (
	"context"
	"testing"
	"time"
)

// A stall delays every call due while it lasts; each delayed call is
// timed from when it was due, not from when it was finally sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	st := openLoop(context.Background(), 1000, 100*time.Millisecond, 1, func(seq int) bool {
		if seq == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if st.n < 50 || len(st.lat) != st.n || len(st.late) != st.n {
		t.Fatalf("%d calls, %d latencies, %d lateness samples", st.n, len(st.lat), len(st.late))
	}
	// Call 10 was due 10ms in and could only be sent after the 60ms stall.
	if st.lat[10] < stall-15*time.Millisecond {
		t.Errorf("call 10 latency %v, want about %v (stall minus its due offset)", st.lat[10], stall-10*time.Millisecond)
	}
	if st.late[10] < stall-15*time.Millisecond {
		t.Errorf("call 10 sent %v late, want about %v", st.late[10], stall-10*time.Millisecond)
	}
}

// A call the generator waited for is timed from its actual send: the
// timer's wake-up slip is the generator's, and it is reported as lateness
// instead.
func TestOpenLoopExcludesGeneratorSlip(t *testing.T) {
	st := openLoop(context.Background(), 50, 200*time.Millisecond, 1, func(int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	for i, l := range st.lat {
		if l > 15*time.Millisecond {
			t.Errorf("call %d latency %v for a 1ms call", i, l)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	st := openLoop(ctx, 100, time.Minute, 2, func(int) bool { return true })
	if time.Since(start) > 5*time.Second || st.n > 20 {
		t.Fatalf("loop ran %v and %d calls after cancel", time.Since(start), st.n)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	st := closedLoop(context.Background(), 2, 30*time.Millisecond, func(w, seq int) bool {
		time.Sleep(time.Millisecond)
		return seq%2 == 0
	})
	if st.n == 0 || st.failed == 0 || st.failed > st.n || len(st.lat) != st.n {
		t.Fatalf("n %d failed %d lat %d", st.n, st.failed, len(st.lat))
	}
}

// Failed calls return fast; goodput must not count them, or a server that
// sheds would read as faster.
func TestGoodputExcludesFailures(t *testing.T) {
	st := closedLoop(context.Background(), 2, 50*time.Millisecond, func(w, seq int) bool {
		if seq%2 == 1 {
			return false // a fast failure, like a shed
		}
		time.Sleep(time.Millisecond)
		return true
	})
	want := float64(st.n-st.failed) / st.elapsed.Seconds()
	if st.failed == 0 || st.goodput() != want {
		t.Fatalf("goodput %v with %d of %d calls failed, want %v", st.goodput(), st.failed, st.n, want)
	}
	allFail := closedLoop(context.Background(), 1, 10*time.Millisecond, func(int, int) bool { return false })
	if allFail.n == 0 || allFail.goodput() != 0 {
		t.Fatalf("%d calls all failed, goodput %v, want 0", allFail.n, allFail.goodput())
	}
}

func TestClosedLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	closedLoop(ctx, 2, time.Minute, func(int, int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	if time.Since(start) > 5*time.Second {
		t.Fatalf("loop ran %v after cancel", time.Since(start))
	}
}
