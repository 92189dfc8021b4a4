package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

var (
	getRequest  = &http.Request{Method: http.MethodGet}
	headRequest = &http.Request{Method: http.MethodHead}
)

// client is a minimal HTTP/1.1 client over one keep-alive connection: one
// goroutine, no transport goroutines beside it, so the generator stays
// within its share of the cores.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
	body []byte
}

func newClient(baseURL string) *client {
	return &client{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// reply is what a read returned. body aliases the client's buffer and is
// valid until the next request.
type reply struct {
	status  int
	xcache  string
	lastMod string
	body    []byte
}

// send writes one request. id, when non-zero, rides as X-Bench-Id for the
// traced run. Requests may be pipelined: every send is answered by one recv,
// in order.
func (c *client) send(kind uint8, path, ims string, id uint64) error {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err != nil {
			return err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	c.req.Reset()
	if kind == opHead {
		c.req.WriteString("HEAD ")
	} else {
		c.req.WriteString("GET ")
	}
	c.req.WriteString(path)
	c.req.WriteString(" HTTP/1.1\r\nHost: leaf\r\n")
	if kind == opCond && ims != "" {
		c.req.WriteString("If-Modified-Since: ")
		c.req.WriteString(ims)
		c.req.WriteString("\r\n")
	}
	if id != 0 {
		c.req.WriteString(benchIDHeader + ": ")
		c.req.WriteString(strconv.FormatUint(id, 10))
		c.req.WriteString("\r\n")
	}
	c.req.WriteString("\r\n")
	_ = c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		c.close()
		return err
	}
	return nil
}

// recv reads the whole response to the oldest unanswered request, which was
// of the given kind.
func (c *client) recv(kind uint8) (reply, error) {
	if c.conn == nil {
		return reply{}, errors.New("connection lost")
	}
	expect := getRequest
	if kind == opHead {
		expect = headRequest
	}
	resp, err := http.ReadResponse(c.br, expect)
	if err != nil {
		c.close()
		return reply{}, err
	}
	out := reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), lastMod: resp.Header.Get("Last-Modified")}
	if n := resp.ContentLength; n >= 0 && kind != opHead {
		if int64(cap(c.body)) < n {
			c.body = make([]byte, n)
		}
		out.body = c.body[:n]
		_, err = io.ReadFull(resp.Body, out.body)
	} else {
		out.body, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		c.close()
		return reply{}, err
	}
	return out, nil
}

// readStats is what one reader measured in one phase.
type readStats struct {
	attempted, failed int
	hits              int // replies marked X-Cache: HIT
	firstErr          string
	latency           []float64 // ms from the intended send instant, arrival order (open loop)
	late              []float64 // µs between intended and actual send (open loop)
	elapsed           time.Duration
	spin              time.Duration // busy-waited for intended instants (open loop)
	spans             []span
}

func (rs *readStats) fail(format string, args ...any) {
	rs.failed++
	if rs.firstErr == "" {
		rs.firstErr = fmt.Sprintf(format, args...)
	}
}

// reader drives one connection to the leaf.
type reader struct {
	c          *client
	pl         *plan
	tk         *tracker
	validators []string // Last-Modified of the last full GET, per key
	ids        *atomic.Uint64
}

// inflight is a request sent and not yet answered.
type inflight struct {
	op   readOp
	kind uint8 // op.kind, or opGet for a conditional with nothing to validate
	id   uint64
	sent time.Time
	err  error
}

// issue sends op. traced stamps the request with an id.
func (r *reader) issue(op readOp, rs *readStats, traced bool) inflight {
	in := inflight{op: op, kind: op.kind}
	ims := ""
	if in.kind == opCond {
		if ims = r.validators[op.key]; ims == "" {
			in.kind = opGet // nothing to validate against yet
		}
	}
	if traced {
		in.id = r.ids.Add(1)
	}
	rs.attempted++
	in.sent = time.Now()
	in.err = r.c.send(in.kind, r.pl.keys[op.key].path, ims, in.id)
	return in
}

// complete reads the reply to in and checks the output.
func (r *reader) complete(in inflight, rs *readStats) (done time.Time) {
	var rep reply
	err := in.err
	if err == nil {
		rep, err = r.c.recv(in.kind)
	}
	done = time.Now()
	if in.id != 0 {
		rs.spans = append(rs.spans, span{Name: spanRead, Trace: in.id, ID: in.id, start: in.sent, end: done})
	}
	path := r.pl.keys[in.op.key].path
	switch {
	case err != nil:
		rs.fail("read %s: %v", path, err)
	case rep.status != http.StatusOK && !(rep.status == http.StatusNotModified && in.kind == opCond):
		rs.fail("read %s: status %d", path, rep.status)
	case !validXCache(rep.xcache):
		rs.fail("read %s: X-Cache %q", path, rep.xcache)
	case in.kind != opHead && rep.status == http.StatusOK && !r.tk.published(int(in.op.key), bodyDigest(rep.body)):
		rs.fail("read %s: body is no revision the origin published", path)
	case done.Sub(in.sent) > readDeadline:
		rs.fail("read %s: took %v", path, done.Sub(in.sent))
	default:
		if rep.xcache == "HIT" {
			rs.hits++
		}
		if in.kind == opGet && rep.lastMod != "" {
			r.validators[in.op.key] = rep.lastMod
		}
	}
	return done
}

func validXCache(v string) bool {
	return v == "HIT" || v == "MISS" || v == "GRACE" || v == "BYPASS"
}

// spinMargin is how long before a read's intended instant its reader stops
// sleeping and starts busy-waiting.
const spinMargin = 200 * time.Microsecond

// closedDepth is how many requests a reader keeps outstanding on its
// connection in the closed phase. One at a time would measure the ping-pong
// between two parked threads, not the leaf: the server would sleep through
// most of every round trip.
const closedDepth = 8

// runClosed keeps closedDepth requests pipelined on the connection, sending
// the next as each reply completes and cycling through ops, until d has
// passed.
func (r *reader) runClosed(ops []readOp, d time.Duration) readStats {
	var rs readStats
	var window [closedDepth]inflight
	start := time.Now()
	sent, recvd := 0, 0
	for time.Since(start) < d {
		for sent-recvd < closedDepth {
			window[sent%closedDepth] = r.issue(ops[sent%len(ops)], &rs, false)
			sent++
		}
		r.complete(window[recvd%closedDepth], &rs)
		recvd++
		if r.c.conn == nil {
			// The connection went down under the pipeline: the replies to
			// everything still outstanding are lost with it.
			rs.failed += sent - recvd
			recvd = sent
		}
	}
	rs.elapsed = time.Since(start)
	for ; recvd < sent; recvd++ {
		r.complete(window[recvd%closedDepth], &rs)
	}
	return rs
}

// runOpen sends op i at start + i*interval whatever the previous replies
// did, and times each from that intended instant, so a stall is charged to
// every request it delays. Ops still unsent at start + 2*len*interval are
// counted as failed.
func (r *reader) runOpen(ops []readOp, start time.Time, interval time.Duration, traced bool) readStats {
	rs := readStats{latency: make([]float64, 0, len(ops)), late: make([]float64, 0, len(ops))}
	giveUp := start.Add(2 * time.Duration(len(ops)) * interval)
	for i, op := range ops {
		intended := start.Add(time.Duration(i) * interval)
		// Sleep to just short of the instant, then busy-wait: a thread woken
		// from nanosleep is tens of µs late, by an amount that differs from
		// run to run, and every µs of it would be charged to the leaf. The
		// time burnt here is reported so cpu_cores can leave it out.
		sleepUntil(intended.Add(-spinMargin))
		for spinStart := time.Now(); ; {
			if now := time.Now(); !now.Before(intended) {
				rs.spin += now.Sub(spinStart)
				break
			}
		}
		if time.Now().After(giveUp) {
			rs.attempted += len(ops) - i
			rs.failed += len(ops) - i
			if rs.firstErr == "" {
				rs.firstErr = "open loop fell a whole phase behind its schedule"
			}
			break
		}
		in := r.issue(op, &rs, traced)
		done := r.complete(in, &rs)
		rs.late = append(rs.late, us(in.sent.Sub(intended)))
		lat := done.Sub(intended)
		if lat > readDeadline && done.Sub(in.sent) <= readDeadline {
			rs.fail("read %s: %v behind its intended send", r.pl.keys[op.key].path, lat)
		}
		rs.latency = append(rs.latency, ms(lat))
	}
	rs.elapsed = time.Since(start)
	return rs
}

// sleepUntil blocks the calling thread until t. time.Sleep will not do: an
// idle Go runtime parks in epoll_wait, whose timeout counts milliseconds, so
// on a quiet process every short sleep ends up to 1 ms late and the lateness
// would swamp a 100 µs serve. nanosleep(2) is late by tens of µs.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// updateStats is what the update stream did.
type updateStats struct {
	sets, skipped int
	late          []float64 // µs behind schedule
}

// runUpdates plays the update schedule from start until stop is closed or
// the schedule ends. phaseOf maps an offset to its phase. A key the leaf no
// longer holds in memory is skipped when skipEvicted is set: its update could
// not be seen arriving.
func runUpdates(t *topology, pl *plan, tk *tracker, start time.Time, phaseOf func(time.Duration) int, skipEvicted bool, stop <-chan struct{}) updateStats {
	var st updateStats
	leaf := t.leaf().proxy
	var ids uint64
	for _, op := range pl.updates {
		due := start.Add(op.at)
		for {
			select {
			case <-stop:
				return st
			default:
			}
			if time.Until(due) <= 0 {
				break
			}
			// Wake at least every 50 ms to notice stop.
			sleepUntil(minTime(due, time.Now().Add(50*time.Millisecond)))
		}
		st.late = append(st.late, us(time.Since(due)))
		u := pl.units[op.unit]
		round := -1
		if len(u.keys) > 1 {
			round = tk.newRound()
		}
		for _, k := range u.keys {
			if skipEvicted {
				if _, resident := leaf.CachedBody(pl.keys[k].path); !resident {
					st.skipped++
					continue
				}
			}
			ids++
			up, body := tk.begin(pl.seed, k, round, phaseOf(op.at), ids)
			t.origin.Set(pl.keys[k].path, body, "text/plain")
			done := time.Now()
			kt := &tk.keys[k]
			kt.mu.Lock()
			up.setDone = done
			kt.mu.Unlock()
			st.sets++
		}
	}
	return st
}
