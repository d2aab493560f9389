package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// connCounter tracks how many client connections are open at once.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) opened() {
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// countedConn decrements its counter exactly once when closed.
type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// newLimitedClient returns an HTTP client that never holds more than
// maxConns connections to a host — dialing, active and idle together —
// plus the counter that observes it. Requests beyond the limit wait for a
// connection, so a client-side queue shows up as latency measured from each
// request's due time.
func newLimitedClient(maxConns int) (*http.Client, *connCounter) {
	counter := &connCounter{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			counter.opened()
			return &countedConn{Conn: c, c: counter}, nil
		},
	}
	return &http.Client{Transport: tr}, counter
}

// arrivalTiming is one open-loop arrival's timing, both parts measured from
// its due time: Late is how late the generator started it, Latency is when
// its operation finished.
type arrivalTiming struct {
	Late, Latency time.Duration
}

// openLoop starts op(i, due) on its own goroutine at each due time
// start+schedule[i], regardless of whether earlier operations finished, and
// waits for all of them. Once ctx is done, arrivals not yet started are
// skipped and report a zero timing.
func openLoop(ctx context.Context, start time.Time, schedule []time.Duration, op func(i int, due time.Time)) []arrivalTiming {
	out := make([]arrivalTiming, len(schedule))
	var wg sync.WaitGroup
	for i, off := range schedule {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := time.Since(due)
			op(i, due)
			out[i] = arrivalTiming{Late: late, Latency: time.Since(due)}
		}()
	}
	wg.Wait()
	return out
}
