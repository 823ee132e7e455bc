package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the closed-loop load generator: one goroutine, one kept-alive
// connection, the next request only after the previous one is answered.
// Time in this system is logical and client-driven, so that is how a
// single-writer feed behaves.
type client struct {
	http *http.Client
	base string
	rec  *recorder // nil unless the run is traced

	attempted, failed int
	lastErr           error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		Timeout:   30 * time.Second,
	}
}

// do sends one request and returns the response body and the latency the
// client observed, body read included. Anything but a 200 — a transport
// error, a refusal, a 206 partial answer — counts as failed.
func (c *client) do(span string, trace int, method, path string, body []byte) ([]byte, time.Duration) {
	c.attempted++
	id := c.rec.start(span, 0, trace)
	t0 := time.Now()
	out, err := roundTrip(c.http, method, c.base+path, body)
	d := time.Since(t0)
	c.rec.end(id)
	if err != nil {
		c.failed++
		c.lastErr = fmt.Errorf("%s %s: %w", method, path, err)
	}
	return out, d
}

// roundTrip sends one request and returns the body of a 200 response.
func roundTrip(hc *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) get(path string) []byte {
	out, _ := c.do("http.get", 0, http.MethodGet, path, nil)
	return out
}

// reads are the two queries every workload issues, by name.
type reads struct {
	topk, bbox string // request paths
}

// phase is what one stretch of the feed observed, latencies in ms.
type phase struct {
	observe []float64 // POST /observe that does not cross an epoch
	epoch   []float64 // POST /observe that does: the coordinator runs inside it
	topk    []float64 // reads issued right after a write (cold view)
	bbox    []float64
	obs     int // observations acknowledged
	wall    time.Duration
	next    int // index of the first timestamp not fed
}

// feed posts timestamps from+1.. in order until the deadline passes or
// `to` timestamps have been fed, whichever is first (a zero deadline
// means no deadline). After every readEvery-th write it issues one read,
// alternating /topk and /paths?bbox; readEvery 0 issues none.
func (c *client) feed(st *stream, from, to int, deadline time.Time, readEvery int, q reads) phase {
	var p phase
	t0 := time.Now()
	i, nread := from, 0
	for ; i < to; i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		t := i + 1
		_, d := c.do("http.observe", t, http.MethodPost, "/observe", st.bodies[i])
		if t%epochLen == 0 {
			p.epoch = append(p.epoch, ms(d))
		} else {
			p.observe = append(p.observe, ms(d))
		}
		p.obs += len(st.batches[i])
		if readEvery > 0 && (i-from+1)%readEvery == 0 {
			if nread%2 == 0 {
				_, d = c.do("http.topk", nread, http.MethodGet, q.topk, nil)
				p.topk = append(p.topk, ms(d))
			} else {
				_, d = c.do("http.bbox", nread, http.MethodGet, q.bbox, nil)
				p.bbox = append(p.bbox, ms(d))
			}
			nread++
		}
	}
	p.wall = time.Since(t0)
	p.next = i
	return p
}

// quiet repeats one read n times with no write in between, so all but
// the first are answered from the cached view.
func (c *client) quiet(span, path string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		_, d := c.do(span, i, http.MethodGet, path, nil)
		out[i] = ms(d)
	}
	return out
}
