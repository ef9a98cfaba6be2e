package par

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ w, n, want int }{
		{4, 10, 4},
		{4, 2, 2},
		{0, 1 << 30, gmp},
		{-3, 1 << 30, gmp},
		{0, 1, 1},
		{5, 0, 1},
		{0, 0, 1},
	} {
		if got := Workers(c.w, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.w, c.n, got, c.want)
		}
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, w := range []int{1, 4, 8} {
		counts := make([]atomic.Int32, n)
		For(context.Background(), n, w, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers %d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestForCancelStopsFeed(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		var late atomic.Int32
		For(ctx, 1000, w, func(i int) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		// A worker may start one index it admitted just before the
		// cancellation landed, and no more.
		if got := late.Load(); got > int32(w-1) {
			t.Fatalf("workers %d: %d indexes started after cancel", w, got)
		}
		if got := ran.Load(); got >= 1000 {
			t.Fatalf("workers %d: all %d indexes ran despite cancel", w, got)
		}
		cancel()
	}
}

// counter returns a next func yielding 0..n-1.
func counter(n int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i == n {
			return 0, false
		}
		i++
		return i - 1, true
	}
}

func TestPipeOrderUnderJitter(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	for _, w := range []int{1, 4, 8} {
		p := NewPipe(w, w+2, counter(n), func(i int) int {
			time.Sleep(delays[i])
			return i * i
		})
		for i := 0; i < n; i++ {
			r, ok := p.Next()
			if !ok || r != i*i {
				t.Fatalf("workers %d: result %d = (%d, %v), want (%d, true)", w, i, r, ok, i*i)
			}
		}
		if _, ok := p.Next(); ok {
			t.Fatalf("workers %d: Next past the last job reported ok", w)
		}
		p.Close()
	}
}

func TestPipeWindowBound(t *testing.T) {
	const n, window = 300, 3
	var live, peak atomic.Int32
	next := counter(n)
	p := NewPipe(8, window, func() (int, bool) {
		i, ok := next()
		if ok {
			v := live.Add(1)
			for {
				old := peak.Load()
				if v <= old || peak.CompareAndSwap(old, v) {
					break
				}
			}
		}
		return i, ok
	}, func(i int) int {
		time.Sleep(time.Duration(i%7) * 20 * time.Microsecond)
		return i
	})
	defer p.Close()
	for {
		// A job is live from next until the consumer moves past its
		// result; decrement for the previous one before asking again.
		r, ok := p.Next()
		if !ok {
			break
		}
		if r%11 == 0 {
			time.Sleep(100 * time.Microsecond) // let the feeder run ahead
		}
		live.Add(-1)
	}
	if got := peak.Load(); got > window {
		t.Fatalf("%d jobs live at once, window %d", got, window)
	}
	if got := peak.Load(); got < window {
		t.Fatalf("peak %d live jobs never reached the window %d; the bound is untested", got, window)
	}
}

// settle waits for the goroutine count to return to base. Close has
// already waited for every goroutine to finish its work; the runtime can
// still take a moment, milliseconds under -race, to retire a goroutine
// that has signalled its exit.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPipeCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var running atomic.Int32
	square := func(i int) int {
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(time.Millisecond)
		return i * i
	}
	cases := []struct {
		name  string
		jobs  int
		reads int
		twice bool
	}{
		{"mid-stream", 1000, 5, false},
		{"before any Next", 1000, 0, false},
		{"after the end", 10, 11, false},
		{"twice", 1000, 3, true},
		{"zero jobs", 0, 0, false},
		{"zero jobs drained", 0, 1, false},
	}
	for _, c := range cases {
		p := NewPipe(4, 6, counter(c.jobs), square)
		for i := 0; i < c.reads; i++ {
			p.Next()
		}
		p.Close()
		if c.twice {
			p.Close()
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%s: %d jobs still running after Close returned", c.name, n)
		}
		if _, ok := p.Next(); ok {
			t.Fatalf("%s: Next after Close reported ok", c.name)
		}
		settle(t, base, c.name)
	}
}
