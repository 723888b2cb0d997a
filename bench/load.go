package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"hdface/internal/serve"
)

// newClient returns a keep-alive HTTP client that opens at most conns
// connections: the in-flight bound of one load lane. A reply whose headers
// take longer than any workload's slowest answer fails instead of hanging
// the run.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:       conns,
		MaxIdleConnsPerHost:   conns,
		DisableCompression:    true,
		ResponseHeaderTimeout: 30 * time.Second,
	}}
}

// post sends body and decodes a 2xx JSON reply into out. Any other status
// or a transport error is an error.
func post(c *http.Client, url, contentType string, body []byte, tenant string, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func predict(c *http.Client, base string, pgm []byte, tenant string) (serve.PredictResponse, error) {
	var r serve.PredictResponse
	err := post(c, base+"/predict", "application/octet-stream", pgm, tenant, &r)
	return r, err
}

func detectReq(c *http.Client, base string, pgm []byte) (serve.DetectResponse, error) {
	var r serve.DetectResponse
	err := post(c, base+"/detect", "application/octet-stream", pgm, "", &r)
	return r, err
}

func feedback(c *http.Client, base, tenant, requestID string, label int) (serve.FeedbackResponse, error) {
	body, _ := json.Marshal(map[string]any{"request_id": requestID, "label": label})
	var r serve.FeedbackResponse
	err := post(c, base+"/feedback", "application/json", body, tenant, &r)
	return r, err
}

// openLoop issues one request per due time (offsets from start) to
// inFlight senders that take arrivals in order: an arrival that finds every
// sender busy waits, and its latency still counts from its due time, so a
// stall shows in the latencies of everything queued behind it. send
// returns whether the request succeeded.
func openLoop(start time.Time, due []time.Duration, inFlight int, send func(i int) bool) openResult {
	n := len(due)
	r := openResult{Lat: make([]time.Duration, n), Svc: make([]time.Duration, n),
		OK: make([]bool, n), Late: make([]time.Duration, n)}
	// Sized to the schedule, so the generator never blocks behind a busy
	// sender and its lateness measures only its own timing.
	arrivals := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arrivals {
				t := time.Now()
				r.OK[i] = send(i)
				r.Svc[i] = time.Since(t)
				r.Lat[i] = time.Since(start.Add(due[i]))
			}
		}()
	}
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		r.Late[i] = time.Since(at)
		arrivals <- i
	}
	close(arrivals)
	wg.Wait()
	return r
}

// openResult holds per-arrival outcomes of an open loop.
type openResult struct {
	Lat  []time.Duration // due time to reply
	Svc  []time.Duration // send to reply
	OK   []bool
	Late []time.Duration // how far behind schedule the generator issued the arrival
}

// closedLoop runs workers that each send their next request as soon as the
// previous one returns, until d has elapsed; send(i) handles request i and
// returns whether it succeeded. Requests in flight at the end still finish:
// they count as sent (and failed, if they fail) but not as completed.
func closedLoop(d time.Duration, workers int, send func(i int) bool) closedResult {
	var mu sync.Mutex
	var r closedResult
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				i := r.Sent
				r.Sent++
				mu.Unlock()
				t := time.Now()
				good := send(i)
				done := time.Now()
				mu.Lock()
				if !done.After(end) {
					r.Lat = append(r.Lat, latOrInf(done.Sub(t), good))
					if good {
						r.Done++
					}
				}
				if !good {
					r.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return r
}

// closedResult holds the outcome of a closed loop.
type closedResult struct {
	Lat          []float64 // ms per request completed inside the window; +Inf if it failed
	Done         int       // requests that completed inside the window and succeeded
	Sent, Failed int       // over the whole loop, including the requests it drained
}

// latOrInf is a request's latency in ms, or +Inf if it failed: a failed or
// refused request misses any latency limit.
func latOrInf(d time.Duration, ok bool) float64 {
	if !ok {
		return math.Inf(1)
	}
	return ms(d)
}

// streamResult is the client view of one POST /stream.
type streamResult struct {
	Sent   int                 // frames written
	Lat    []time.Duration     // per answered frame: frame written to event read
	Events []serve.StreamEvent // one per frame sent, in order
	Err    error               // transport or framing failure
}

// streamClip sends a clip through POST /stream one frame at a time: frame
// i+1 is written only after frame i's event has been read, so each frame's
// latency is the client-observed service time of that frame. No frame is
// started after until; the stream is then closed early.
func streamClip(c *http.Client, base string, frames [][]byte, until time.Time) streamResult {
	var res streamResult
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/stream", pr)
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// A streamed body cannot be replayed, so the transport cannot retry it
	// on a pooled connection the daemon has meanwhile closed: every clip
	// gets a fresh connection.
	req.Close = true
	type doResult struct {
		resp *http.Response
		err  error
	}
	respc := make(chan doResult, 1)
	go func() {
		resp, err := c.Do(req)
		respc <- doResult{resp, err}
	}()
	var dr doResult
	awaited := false
	defer func() {
		// Closing the body ends the stream; then wait for the request, so
		// that its connection is released.
		pw.Close()
		if !awaited {
			dr = <-respc
		}
		if dr.resp != nil {
			io.Copy(io.Discard, dr.resp.Body)
			dr.resp.Body.Close()
		}
	}()
	// The response headers arrive with the first event, so the first frame
	// is written before the response is awaited.
	var sc *bufio.Scanner
	for i, f := range frames {
		if i > 0 && time.Now().After(until) {
			break
		}
		t := time.Now()
		if err := serve.WriteFrame(pw, f); err != nil {
			res.Err = fmt.Errorf("write frame %d: %w", i, err)
			return res
		}
		res.Sent++
		if sc == nil {
			dr, awaited = <-respc, true
			if dr.err != nil {
				res.Err = dr.err
				return res
			}
			if dr.resp.StatusCode != http.StatusOK {
				res.Err = fmt.Errorf("/stream: status %d", dr.resp.StatusCode)
				return res
			}
			sc = bufio.NewScanner(dr.resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
		}
		if !sc.Scan() {
			res.Err = fmt.Errorf("stream ended after %d of %d frames: %v", i, len(frames), sc.Err())
			return res
		}
		res.Lat = append(res.Lat, time.Since(t))
		var ev serve.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			res.Err = fmt.Errorf("frame %d event: %w", i, err)
			return res
		}
		res.Events = append(res.Events, ev)
	}
	if sc == nil {
		res.Err = fmt.Errorf("empty clip")
		return res
	}
	if err := serve.CloseFrames(pw); err != nil {
		res.Err = err
		return res
	}
	pw.Close()
	// All that may follow the last frame's event is the stream summary.
	for sc.Scan() {
		var ev serve.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Type != "summary" {
			res.Err = fmt.Errorf("after the last frame: %q event (decode error %v)", ev.Type, err)
			return res
		}
	}
	res.Err = sc.Err()
	return res
}
