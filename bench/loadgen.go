package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// client is the producer side: one keep-alive connection, used serially for
// ingest, churn, subscribes, polls and /metrics. It speaks plain net/http
// with the harness's own bodies so it does not move when the repo's client
// package does.
type client struct {
	base string
	http *http.Client

	attempted, failed int64
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// ingest posts one encoded batch; anything but 200 with the whole batch
// accepted is a failed operation.
func (c *client) ingest(in *inputs, k int) error {
	c.attempted++
	status, data, err := c.do(http.MethodPost, "/ingest", in.contentType(), in.bodies[k])
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	if err == nil {
		var res struct {
			Accepted int `json:"accepted"`
		}
		if err = json.Unmarshal(data, &res); err == nil && res.Accepted != in.spec.batch {
			err = fmt.Errorf("accepted %d of %d", res.Accepted, in.spec.batch)
		}
	}
	if err != nil {
		c.failed++
		return fmt.Errorf("ingest batch %d: %w", k, err)
	}
	return nil
}

func (c *client) subscribe(body []byte) (int64, error) {
	c.attempted++
	status, data, err := c.do(http.MethodPost, "/subscriptions", "application/json", body)
	var res struct {
		ID int64 `json:"id"`
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil {
		c.failed++
		return 0, fmt.Errorf("subscribe: %w", err)
	}
	return res.ID, nil
}

func (c *client) unsubscribe(id int64) error {
	c.attempted++
	status, data, err := c.do(http.MethodDelete, "/subscriptions/"+strconv.FormatInt(id, 10), "", nil)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	if err != nil {
		c.failed++
		return fmt.Errorf("unsubscribe %d: %w", id, err)
	}
	return nil
}

// churn sends the subscribe/DELETE pair that follows ingest batch k, if one does.
func (c *client) churn(in *inputs, k int) error {
	body := in.churnAfter(k)
	if body == nil {
		return nil
	}
	id, err := c.subscribe(body)
	if err != nil {
		return err
	}
	return c.unsubscribe(id)
}

func (c *client) getJSON(path string, v any) error {
	status, data, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// sseStream is the subscriber side: the second connection, attached to the
// sentinel subscription. Its reader stamps every emission event with the
// wall time at which the event was complete.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error

	// at[seq-1] is when emission seq was read, in ns since the Unix epoch.
	// The reader writes a slot before it publishes seq in last.
	at   []int64
	last atomic.Int64
	gaps atomic.Int64
	end  atomic.Bool // the server sent its terminal end event
}

// attachSSE opens the stream and returns once the server has answered 200.
// capacity bounds the sentinel's emission count.
func attachSSE(addr string, sub int64, capacity int) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/subscriptions/%d/stream?after=0", addr, sub), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	tr := &http.Transport{}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE attach: status %d", resp.StatusCode)
	}
	s := &sseStream{cancel: cancel, done: make(chan struct{}), at: make([]int64, capacity)}
	go func() {
		defer close(s.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		s.err = s.read(resp.Body)
		if ctx.Err() != nil {
			s.err = nil // closed by us
		}
	}()
	return s, nil
}

// read is a minimal SSE parser: "id:" and "event:" fields, dispatch on the
// blank line. Data payloads are not decoded here; the oracle polls them.
func (s *sseStream) read(body io.Reader) error {
	br := bufio.NewReaderSize(body, 64<<10)
	var id int64
	var event []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == io.EOF && s.end.Load() {
				return nil
			}
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			switch string(event) {
			case "emission":
				if id < 1 || id > int64(len(s.at)) {
					return fmt.Errorf("SSE emission id %d outside 1..%d", id, len(s.at))
				}
				s.at[id-1] = time.Now().UnixNano()
				s.last.Store(id)
			case "gap":
				s.gaps.Add(1)
			case "end":
				s.end.Store(true)
			}
			id, event = 0, event[:0]
		case bytes.HasPrefix(line, []byte("id: ")):
			id, _ = strconv.ParseInt(string(line[4:]), 10, 64)
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[7:]...)
		}
	}
}

// waitFor blocks until emission seq has been read, the stream ended, or the
// timeout passed, and reports whether seq arrived.
func (s *sseStream) waitFor(seq int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.last.Load() < seq {
		select {
		case <-s.done:
			return s.last.Load() >= seq
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func (s *sseStream) close() {
	s.cancel()
	<-s.done
}

// pacedResult is what the open-loop phase recorded, one entry per batch.
type pacedResult struct {
	due      []int64 // ns since the Unix epoch
	ackMs    []float64
	lateMs   []float64
	backlog  int // most batches due but not yet sent at any send
	duration time.Duration
}

// runPaced is the open loop: batch i of the phase is due at start+i×interval
// whatever the server does, and every latency is taken from that due time,
// so a stall is charged to every batch it delays.
func runPaced(c *client, in *inputs, sc scale) (*pacedResult, error) {
	n := in.paced
	interval := time.Duration(float64(in.spec.batch) / (in.spec.pacedRate * sc.rateFactor) * float64(time.Second))
	res := &pacedResult{due: make([]int64, n), ackMs: make([]float64, n), lateMs: make([]float64, n)}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		late := sent.Sub(due)
		if behind := int(late / interval); behind > res.backlog {
			res.backlog = behind
		}
		k := in.warm + i
		if err := c.ingest(in, k); err != nil {
			return nil, err
		}
		res.due[i] = due.UnixNano()
		res.ackMs[i] = ms(time.Since(due))
		res.lateMs[i] = ms(late)
		if err := c.churn(in, k); err != nil {
			return nil, err
		}
	}
	res.duration = time.Since(start)
	return res, nil
}

// satResult is what the closed-loop phase measured.
type satResult struct {
	posts      int64
	wall       time.Duration
	serverCPU  time.Duration
	loadgenCPU time.Duration
	ctxSwitch  int64
}

// runSaturation is the closed loop: one connection, the next batch leaves
// when the previous acknowledgement has been read.
func runSaturation(c *client, in *inputs, pid int, from, n int) (*satResult, error) {
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0, err := procCPU(selfPid)
	if err != nil {
		return nil, err
	}
	cs0, err := voluntaryCtxSwitches(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k := from; k < from+n; k++ {
		if err := c.ingest(in, k); err != nil {
			return nil, err
		}
		if err := c.churn(in, k); err != nil {
			return nil, err
		}
	}
	res := &satResult{posts: int64(n * in.spec.batch), wall: time.Since(start)}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self1, err := procCPU(selfPid)
	if err != nil {
		return nil, err
	}
	cs1, err := voluntaryCtxSwitches(pid)
	if err != nil {
		return nil, err
	}
	res.serverCPU, res.loadgenCPU, res.ctxSwitch = cpu1-cpu0, self1-self0, cs1-cs0
	return res, nil
}
