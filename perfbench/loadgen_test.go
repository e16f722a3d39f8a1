package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func constSource(kind string) Source {
	return func(int) Request { return Request{Kind: kind, Path: "/x", Body: []byte("{}")} }
}

// A stall delays every request queued behind it, and the open loop charges
// that wait to them: latency runs from the due time, not the send time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	// One connection, 100/s: requests 1..19 are due during the stall.
	res := OpenLoop(srv.URL, 1, 100, 20, constSource("simulate"), nil)
	if res.Attempted != 20 || res.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want 20 and 0", res.Attempted, res.Failed)
	}
	s := res.Lat["simulate"]
	for _, v := range s.v {
		if v < 5 {
			t.Fatalf("a request queued behind the stall reports %.2f ms; want its wait counted", v)
		}
	}
	late, err := res.Late.Percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if late < 50 {
		t.Fatalf("median generator lateness %.1f ms, want the stall to show", late)
	}
}

// A 503 is a failed request, not retried; so is a transport error and a
// failed body check.
func TestNoRetryAndFailuresCount(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"code":"overloaded"}`, http.StatusServiceUnavailable)
		}
	}))
	res := OpenLoop(srv.URL, 2, 1000, 40, constSource("simulate"), nil)
	if got := calls.Load(); got != 40 {
		t.Fatalf("server saw %d requests for 40 attempts; the generator must not retry", got)
	}
	if res.Attempted != 40 || res.Failed != 20 {
		t.Fatalf("attempted %d failed %d, want 40 and 20", res.Attempted, res.Failed)
	}
	if v, err := res.Lat["simulate"].Percentile(0.6); err != nil || v < 1e300 {
		t.Fatalf("p60 with half the requests failed = %v, %v; want +Inf", v, err)
	}

	bad := errors.New("body mismatch")
	res = ClosedLoop(srv.URL, 1, 50*time.Millisecond, constSource("simulate"),
		func(int, Request, []byte) error { return bad })
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("closed loop: %d of %d failed; every request fails either its status or its check", res.Failed, res.Attempted)
	}

	srv.Close()
	res = OpenLoop(srv.URL, 1, 1000, 3, constSource("plan"), nil)
	if res.Failed != 3 || res.FirstErr == nil {
		t.Fatalf("transport errors: failed %d (%v), want 3", res.Failed, res.FirstErr)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	res := OpenLoop(srv.URL, 2, 200, 40, constSource("simulate"), nil)
	// 40 requests at 200/s: the last is due at 195 ms.
	if res.Elapsed < 190*time.Millisecond || res.Elapsed > 2*time.Second {
		t.Fatalf("40 requests at 200/s took %v", res.Elapsed)
	}
}
