package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is how many load goroutines (and HTTP connections) the
// benchmark runs: one per CPU, so the load generator never outnumbers the
// cores the system under test has.
func clients() int { return runtime.NumCPU() }

// loopStats summarizes one load phase.
type loopStats struct {
	n, failed int
	elapsed   time.Duration
	lat       []time.Duration // per call, in completion order per worker
	late      []time.Duration // open loop only: how late each call was sent
}

// goodput is the successful calls per second: a failed call (a shed, an
// error status, a degraded answer) returns fast, and counting it would
// read as a throughput gain.
func (s loopStats) goodput() float64 {
	return float64(s.n-s.failed) / s.elapsed.Seconds()
}

func (s *loopStats) merge(o loopStats) {
	s.n += o.n
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
}

// closedLoop runs do from workers goroutines for dur, or until ctx is
// done; each sends its next call only after the previous one returned. do
// reports success.
func closedLoop(ctx context.Context, workers int, dur time.Duration, do func(worker, seq int) bool) loopStats {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					return
				}
				ok := do(w, seq)
				st.lat = append(st.lat, time.Since(t0))
				st.n++
				if !ok {
					st.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// openLoop sends calls on a fixed schedule: call i is due at
// start + i/rate, whether or not earlier calls have returned, for dur.
// workers goroutines take the calls in order. A call taken after its due
// time (every worker was still waiting on the system) is timed from its
// due time, so a stall counts against every call it delayed. A call taken
// early waits for its due time; the timer may wake the worker late (by up
// to a millisecond on Linux), and that slip belongs to the generator, not
// the system, so such a call is timed from its actual send. Every call's
// send delay past its due time is reported in late. The loop also ends
// when ctx is done.
func openLoop(ctx context.Context, rate float64, dur time.Duration, workers int, do func(seq int) bool) loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	start := time.Now()
	var next atomic.Int64
	per := make([]loopStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				taken := time.Now()
				if wait := due.Sub(taken); wait > 0 {
					timer := time.NewTimer(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
						return
					}
				}
				sent := time.Now()
				ok := do(int(i))
				done := time.Now()
				from := due
				if taken.Before(due) {
					from = sent
				}
				st.lat = append(st.lat, done.Sub(from))
				st.late = append(st.late, max(0, sent.Sub(due)))
				st.n++
				if !ok {
					st.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	out := loopStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// httpClient returns a client that keeps at most conns connections to
// each server.
func httpClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.MaxConnsPerHost = conns
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// get fetches url and returns the status and body.
func get(ctx context.Context, c *http.Client, url string, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// liveServer is an http.Server on a loopback port.
type liveServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func startServer(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until its serve loop has returned.
func (s *liveServer) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
