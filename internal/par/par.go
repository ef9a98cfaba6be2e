// Package par holds the two worker-pool shapes the pipelines use: For,
// an indexed pool whose tasks each own an output slot, and Pipe, an
// ordered pipeline that runs a bounded window of jobs ahead of its
// consumer. Neither decides what a result is — only when it is
// computed — so callers that write each result to a fixed slot or
// consume Pipe results in job order get the same output at every
// worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count against n pending tasks:
// w <= 0 means runtime.GOMAXPROCS(0), and the result is clamped to
// [1, n] (1 when n < 1).
func Workers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(0..n-1) on Workers(workers, n) goroutines and returns once
// every started call has returned. Indexes start in increasing order,
// so callers that pre-sort their tasks control dispatch order. Once ctx
// is done no further index starts; callers check ctx.Err() afterwards.
// One worker runs the loop on the caller's goroutine.
func For(ctx context.Context, n, workers int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || ctx.Err() != nil {
				return
			}
			fn(i)
		}
	}
	w := Workers(workers, n)
	if w == 1 {
		run()
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}

// A Pipe runs jobs on a pool and hands their results back in job order.
// A feeder goroutine pulls jobs from next, one at a time and in order;
// up to workers goroutines run work on them; Next returns the results
// in the order next produced the jobs. At most window jobs exist at
// once: a job takes a slot before next is called for it and gives it
// back when the consumer calls Next (or Close) after receiving its
// result, so a result stays valid — and its buffers unshared — until
// the following Next.
//
// Next and Close belong to one consumer goroutine. Close may be called
// at any point; it discards jobs in flight without their results, so a
// caller recycling job buffers must not wait for them to come back.
type Pipe[J, R any] struct {
	slots  chan struct{} // window semaphore: one token per live job
	order  chan *pipeJob[J, R]
	stop   chan struct{}
	wg     sync.WaitGroup
	held   bool // the last result returned by Next still holds its slot
	closed bool
}

type pipeJob[J, R any] struct {
	job   J
	res   R
	ready chan struct{} // closed once res is final
}

// NewPipe starts the feeder and Workers(workers, window) workers: more
// than window could never all be busy. A window below 1 counts as 1.
func NewPipe[J, R any](workers, window int, next func() (J, bool), work func(J) R) *Pipe[J, R] {
	if window < 1 {
		window = 1
	}
	workers = Workers(workers, window)
	p := &Pipe[J, R]{
		slots: make(chan struct{}, window),
		order: make(chan *pipeJob[J, R], window),
		stop:  make(chan struct{}),
	}
	// Every queued job holds a slot, so neither order nor todo, both
	// sized to the window, ever blocks a send.
	todo := make(chan *pipeJob[J, R], window)
	p.wg.Add(1 + workers)
	go func() {
		defer p.wg.Done()
		defer close(todo)
		defer close(p.order)
		for {
			select {
			case p.slots <- struct{}{}:
			case <-p.stop:
				return
			}
			j, ok := next()
			if !ok {
				return
			}
			pj := &pipeJob[J, R]{job: j, ready: make(chan struct{})}
			p.order <- pj
			todo <- pj
		}
	}()
	for k := 0; k < workers; k++ {
		go func() {
			defer p.wg.Done()
			for pj := range todo {
				select {
				case <-p.stop:
				default:
					pj.res = work(pj.job)
				}
				close(pj.ready)
			}
		}()
	}
	return p
}

// Next returns the result of the next job in order, waiting for it if
// necessary; ok is false once every job has been returned or after
// Close. Reaching the end releases the Pipe's goroutines.
func (p *Pipe[J, R]) Next() (r R, ok bool) {
	if p.closed {
		return r, false
	}
	if p.held {
		<-p.slots
		p.held = false
	}
	pj, ok := <-p.order
	if !ok {
		p.Close()
		return r, false
	}
	<-pj.ready
	p.held = true
	return pj.res, true
}

// Close stops the feeder, discards unfinished jobs and returns once
// every goroutine the Pipe started has exited. A call running work
// finishes first. Close is idempotent.
func (p *Pipe[J, R]) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	p.wg.Wait()
}
