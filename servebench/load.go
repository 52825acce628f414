package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// client sends /query requests over at most conns keep-alive connections,
// the way an application with a small connection pool would: no sampled
// traceparent, JSON in, JSON out. Each request is written and its response
// read on the calling goroutine. net/http's client hands every request to a
// writer goroutine and every response back from a reader goroutine; on a
// shared two-processor machine each hand-off may wait for the host to wake
// an idle processor, and that wait would count as the server's latency.
type client struct {
	addr   string
	free   chan *conn // the pool; nil stands for a connection not dialed yet
	bodies [][]byte   // pre-encoded request body per statement
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
}

// requestTimeout bounds one request on the wire; the server's own default
// deadline is serveTimeout.
const requestTimeout = 30 * time.Second

func newClient(addr string, round []*query, conns int) *client {
	c := &client{addr: addr, free: make(chan *conn, conns)}
	for i := 0; i < conns; i++ {
		c.free <- nil
	}
	for _, q := range round {
		b, _ := json.Marshal(map[string]string{"sql": q.sql}) // a map of strings always encodes
		c.bodies = append(c.bodies, b)
	}
	return c
}

// close closes every pooled connection. No request may be in flight.
func (c *client) close() {
	for i := 0; i < cap(c.free); i++ {
		if cn := <-c.free; cn != nil {
			cn.nc.Close()
		}
	}
}

// do sends one request body and reads the whole response into buf. It
// waits for a free connection first, as a pooled client does. A connection
// that failed or that the server closes is dropped and dialed anew by the
// next request.
func (c *client) do(ctx context.Context, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	var cn *conn
	select {
	case cn = <-c.free:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	status, out, keep, err := c.roundTrip(&cn, body, buf)
	if !keep && cn != nil {
		cn.nc.Close()
		cn = nil
	}
	c.free <- cn
	return status, out, err
}

func (c *client) roundTrip(cn **conn, body []byte, buf *bytes.Buffer) (status int, out []byte, keep bool, err error) {
	if *cn == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, false, err
		}
		*cn = &conn{nc: nc, br: bufio.NewReader(nc)}
	}
	nc := (*cn).nc
	if err := nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, false, err
	}
	req := fmt.Appendf(nil, "POST /query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.addr, len(body))
	if _, err := nc.Write(append(req, body...)); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse((*cn).br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), err == nil && !resp.Close, err
}

// phaseStats tallies one load phase.
type phaseStats struct {
	attempted int
	failed    int
	latencies []float64 // ms, successful requests only
	lags      []float64 // ms, generator wake-up lateness, open loop only
	service   []float64 // ms, from a worker taking the request to the whole answer, open loop only
	elapsed   time.Duration
	scoreSum  float64 // Equation 1 over the SPJ answers of this phase
	scoreN    int
	ok200     int // 200 responses, including ones whose body is unusable
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.latencies = append(p.latencies, o.latencies...)
	p.lags = append(p.lags, o.lags...)
	p.service = append(p.service, o.service...)
	p.scoreSum += o.scoreSum
	p.scoreN += o.scoreN
	p.ok200 += o.ok200
}

// record folds one response into the tally and reports whether it
// succeeded.
func (p *phaseStats) record(chk *checker, i int, status int, body []byte, err error, ms float64) bool {
	p.attempted++
	if err == nil && status == http.StatusOK {
		p.ok200++
	}
	o := chk.check(i, status, body, err)
	q := chk.refs[i].q
	if !q.isAgg() {
		p.scoreN++
		if !o.failed {
			p.scoreSum += o.score
		}
	}
	if o.failed {
		p.failed++
		return false
	}
	p.latencies = append(p.latencies, ms)
	return true
}

// openLoop sends requests from to to (of an endless repetition of the
// round) on a fixed schedule at rate req/s. Latency runs from each
// request's due time, so a stall delays the requests behind it and shows;
// lag is how late the generator itself woke for each request. Workers stand
// for the connection pool: a request waits for a free connection exactly as
// it would in a real client. The queue holds every request of the call, so
// handing one over never blocks the generator, and a busy server shows in
// latency, never in lag. Workers that each sleep until their own request's
// due time would save the hand-off, but a worker asleep in nanosleep holds
// one of the two processors' schedulers: on explore-journaled the time from
// send to answer rose from 1.2 to 2.1 ms.
func openLoop(ctx context.Context, c *client, chk *checker, from, to int, rate float64, conns int) *phaseStats {
	type job struct {
		i   int // statement
		due time.Time
	}
	jobs := make(chan job, to-from)
	start := time.Now().Add(5 * time.Millisecond)
	results := make([]*phaseStats, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		st := &phaseStats{}
		results[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				t0 := time.Now()
				status, body, err := c.do(ctx, c.bodies[j.i], &buf)
				if st.record(chk, j.i, status, body, err, ms(time.Since(j.due))) {
					st.service = append(st.service, ms(time.Since(t0)))
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	var lags []float64
	for k := from; k < to; k++ {
		due := start.Add(time.Duration(k-from) * interval)
		sleepUntil(due)
		// The generator's own lateness: how long after the due time it
		// woke up, before any wait for a free connection.
		lags = append(lags, ms(time.Since(due)))
		if ctx.Err() != nil {
			break
		}
		jobs <- job{i: k % len(c.bodies), due: due}
	}
	close(jobs)
	wg.Wait()
	out := &phaseStats{elapsed: time.Since(start), lags: lags}
	for _, st := range results {
		out.merge(st)
	}
	return out
}

// closedLoop runs conns clients back to back for about d, continuing the
// round at *next. With whole set, once d has passed no new round starts and
// the current one is finished; otherwise the clients stop at d wherever
// the round is.
func closedLoop(ctx context.Context, c *client, chk *checker, next *int, d time.Duration, conns int, whole bool) *phaseStats {
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	stopped := false
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || ctx.Err() != nil {
			return 0, false
		}
		if (!whole || *next%len(c.bodies) == 0) && time.Now().After(deadline) {
			stopped = true
			return 0, false
		}
		i := *next % len(c.bodies)
		*next++
		return i, true
	}
	results := make([]*phaseStats, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		st := &phaseStats{}
		results[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				status, body, err := c.do(ctx, c.bodies[i], &buf)
				st.record(chk, i, status, body, err, ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	out := &phaseStats{elapsed: time.Since(start)}
	for _, st := range results {
		out.merge(st)
	}
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers wait in epoll, whose timeout counts whole milliseconds, so a
// sub-millisecond wait with time.Sleep wakes anywhere up to a millisecond
// late, and an open loop paced with it measures that rounding; nanosleep
// wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
