package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one generated HTTP request. Kind names the sample set its
// latency lands in ("simulate", "plan").
type Request struct {
	Kind string
	Path string
	Body []byte
}

// Source yields the i-th request of a workload's stream. It must be safe
// for concurrent use and deterministic in i.
type Source func(i int) Request

// Check inspects a 200 response body of the i-th request; a non-nil error
// counts the request as failed.
type Check func(i int, req Request, body []byte) error

// LoadResult is one loop's outcome. Failures (transport errors, non-200
// statuses, failed checks) are counted and sorted as +Inf into Lat.
type LoadResult struct {
	Lat       map[string]*Samples
	Late      Samples // open loop: send time minus due time
	Attempted int
	Failed    int
	Elapsed   time.Duration
	FirstErr  error
}

// client is an HTTP client holding at most conns connections to the daemon.
func client(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and returns its body. A transport error or a status
// other than 200 is an error; there is no retry.
func do(c *http.Client, base string, req Request) ([]byte, error) {
	resp, err := c.Post(base+req.Path, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// collector gathers per-request outcomes from concurrent workers.
type collector struct {
	mu  sync.Mutex
	res LoadResult
}

func newCollector() *collector {
	return &collector{res: LoadResult{Lat: map[string]*Samples{}}}
}

func (c *collector) record(kind string, lat time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.res.Lat[kind]
	if s == nil {
		s = &Samples{}
		c.res.Lat[kind] = s
	}
	c.res.Attempted++
	if err != nil {
		c.res.Failed++
		if c.res.FirstErr == nil {
			c.res.FirstErr = err
		}
		s.Fail()
		return
	}
	s.Add(lat)
}

// OpenLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — over at most conns connections. Latency is timed from
// each request's due time, so a stall also charges the requests queued
// behind it; Late records how far behind schedule each send went out.
func OpenLoop(base string, conns int, rate float64, n int, src Source, check Check) LoadResult {
	c := client(conns)
	defer c.CloseIdleConnections()
	col := newCollector()
	var late Samples
	var lateMu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				lateMu.Lock()
				late.Add(sent.Sub(due))
				lateMu.Unlock()
				req := src(i)
				body, err := do(c, base, req)
				if err == nil && check != nil {
					err = check(i, req, body)
				}
				col.record(req.Kind, time.Since(due), err)
			}
		}()
	}
	wg.Wait()
	col.res.Elapsed = time.Since(start)
	col.res.Late = late
	return col.res
}

// ClosedLoop runs conns clients for d, each sending its next request as soon
// as the previous one answered. Requests are drawn from src in order.
func ClosedLoop(base string, conns int, d time.Duration, src Source, check Check) LoadResult {
	c := client(conns)
	defer c.CloseIdleConnections()
	col := newCollector()
	var next atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				req := src(i)
				t0 := time.Now()
				body, err := do(c, base, req)
				if err == nil && check != nil {
					err = check(i, req, body)
				}
				col.record(req.Kind, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	col.res.Elapsed = time.Since(start)
	return col.res
}

// Succeeded is the number of requests that did not fail.
func (r LoadResult) Succeeded() int { return r.Attempted - r.Failed }
