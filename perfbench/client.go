package main

// The closed-loop load generator: one goroutine per keep-alive connection,
// each posting its partition's next request only after the previous reply
// has been read and checked, the way a log shipper posts a batch and waits
// for its verdicts.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// client is one connection and its cursor through its traffic.
type client struct {
	url  string
	hc   *http.Client
	tr   *http.Transport
	ct   *connTraffic
	next int // index into ct.reqs, counting across replay loops
	body bytes.Buffer
	rd   bytes.Reader
}

// sample is a delivered line score to check against a direct Score.
type sample struct {
	line  string
	score float64
}

// connResult is what one connection saw in one phase.
type connResult struct {
	sent, delivered int64
	latMS           []float64
	gen             time.Duration // client-side time: timestamp rewrite plus checking
	samples         []sample
	exhausted       bool
	err             error // first failure, for the log
}

func newClients(url string, traffic []*connTraffic) []*client {
	cs := make([]*client, len(traffic))
	for i, ct := range traffic {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{url: url + "/score", tr: tr, hc: &http.Client{Transport: tr}, ct: ct}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// phase runs every client until the deadline passes or one of them runs out
// of traffic, and returns the per-connection results and the wall time
// from start to the last reply.
func phase(cs []*client, d time.Duration) ([]connResult, time.Duration) {
	res := make([]connResult, len(cs))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(deadline, &stop, &res[i])
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

func (c *client) run(deadline time.Time, stop *atomic.Bool, res *connResult) {
	for !stop.Load() && time.Now().Before(deadline) {
		loop, i := c.next/len(c.ct.reqs), c.next%len(c.ct.reqs)
		if loop > 0 && !c.ct.replay {
			res.exhausted = true
			stop.Store(true)
			return
		}
		c.next++
		if err := c.send(&c.ct.reqs[i], int64(loop)*c.ct.span, res); err != nil && res.err == nil {
			res.err = err
		}
	}
}

// send posts one request and checks its reply. A request that fails
// delivers none of its events.
func (c *client) send(r *request, shift int64, res *connResult) error {
	n := int64(len(r.off) - 1)
	res.sent += n
	t0 := time.Now()
	if r.shift != shift {
		if err := c.ct.shiftTimes(r, shift); err != nil {
			return err
		}
		r.shift = shift
	}
	c.rd.Reset(r.body)
	req, err := http.NewRequest(http.MethodPost, c.url, &c.rd)
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(r.body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	t1 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	res.latMS = append(res.latMS, float64(t2.Sub(t1).Nanoseconds())/1e6)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/score answered %s", resp.Status)
	}
	var ls float64
	if err == nil {
		ls, err = checkVerdicts(c.body.Bytes(), r)
	}
	if err == nil {
		res.delivered += n
		if r.sample >= 0 {
			res.samples = append(res.samples, sample{c.ct.events[r.first+r.sample].line, ls})
		}
	}
	res.gen += t1.Sub(t0) + time.Since(t2)
	return err
}

// checkVerdicts checks that body holds exactly one verdict per event of r,
// in order, each echoing its event's user, time and line, with finite
// scores; it returns the line score of r's sampled event.
func checkVerdicts(body []byte, r *request) (float64, error) {
	var sampled float64
	n := len(r.off) - 1
	for k := 0; k < n; k++ {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return 0, fmt.Errorf("%d verdicts for %d events", k, n)
		}
		v := body[:nl]
		body = body[nl+1:]
		ev := r.body[r.off[k] : r.off[k+1]-2] // the event object without "}\n"
		if !bytes.HasPrefix(v, ev) || len(v) == len(ev) || v[len(ev)] != ',' {
			return 0, fmt.Errorf("verdict %d does not echo its event: %.120s", k, v)
		}
		ls, err := verdictScores(v[len(ev)+1:])
		if err != nil {
			return 0, fmt.Errorf("verdict %d: %w", k, err)
		}
		if k == r.sample {
			sampled = ls
		}
	}
	if len(body) != 0 {
		return 0, fmt.Errorf("trailing output after %d verdicts: %.120s", n, body)
	}
	return sampled, nil
}

// scoreKeys are the verdict fields that must be present and finite.
var scoreKeys = [...]string{"line_score", "context_score", "session_score"}

// verdictScores scans the fields of a verdict that follow its echoed line
// (`"key":value,...}`) and returns its line score. Every score field must
// be present and finite; other fields are skipped.
func verdictScores(b []byte) (float64, error) {
	var scores [len(scoreKeys)]float64
	var seen [len(scoreKeys)]bool
	for {
		if len(b) == 0 || b[0] != '"' {
			return 0, errors.New("malformed field")
		}
		end := bytes.IndexByte(b[1:], '"')
		if end < 0 || len(b) < end+3 || b[end+2] != ':' {
			return 0, errors.New("malformed key")
		}
		key := b[1 : end+1]
		b = b[end+3:]
		i := 0
		if len(b) > 0 && b[0] == '"' {
			for i = 1; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			i++
		}
		for i < len(b) && b[i] != ',' && b[i] != '}' {
			i++
		}
		if i >= len(b) {
			return 0, errors.New("unterminated verdict")
		}
		val := b[:i]
		for j, sk := range scoreKeys {
			if string(key) != sk {
				continue
			}
			// The string view does not outlive this call, and ParseFloat's
			// error is not kept.
			f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(val), len(val)), 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return 0, fmt.Errorf("%s %q is not a finite number", sk, val)
			}
			scores[j], seen[j] = f, true
		}
		if b[i] == '}' {
			if i != len(b)-1 {
				return 0, errors.New("trailing bytes after verdict")
			}
			break
		}
		b = b[i+1:]
	}
	for j, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("verdict lacks %s", scoreKeys[j])
		}
	}
	return scores[0], nil
}
