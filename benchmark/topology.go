package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// countingListener counts the bytes that cross the connections it accepts,
// both directions: the traffic of the link between this node and its
// clients.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// server is one HTTP server on a loopback listener the benchmark owns.
type server struct {
	ln  *countingListener
	srv *http.Server
	url string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{ln: &countingListener{Listener: ln}, url: "http://" + ln.Addr().String()}
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(s.ln) //nolint:errcheck // returns ErrServerClosed on close
	return s, nil
}

// node is one proxy with the server in front of it.
type node struct {
	name      string
	proxy     *webproxy.Proxy
	server    *server
	transport *http.Transport
}

// topology is a started fleet: origin, then proxies root-first. The leaf is
// the last node; clients talk to it.
type topology struct {
	origin    *webserver.Origin
	originSrv *server
	nodes     []*node
	diskDir   string
	// populatedAt is when the last revision 0 was Set.
	populatedAt time.Time
}

func (t *topology) leaf() *node { return t.nodes[len(t.nodes)-1] }

// hooks are the seams a run hangs measurement on; any may be nil.
type hooks struct {
	// observer returns the PollObserver of the named node, or nil.
	observer func(node string) func(webproxy.PollObservation)
	// wrapOrigin and wrapLeaf wrap the origin's and the leaf's handlers;
	// wrapLeafClient wraps the leaf's upstream transport.
	wrapOrigin, wrapLeaf func(http.Handler) http.Handler
	wrapLeafClient       func(http.RoundTripper) http.RoundTripper
}

var nodeNames = map[int][]string{1: {"leaf"}, 3: {"root", "mid", "leaf"}}

// startTopology starts the origin, hosts revision 0 of every key on it,
// starts the workload's proxies, each on its own loopback listener, and
// waits for every push subscription to connect. The origin is populated
// before anything subscribes: the initial Sets would otherwise lap the hub's
// replay ring and get the root's stream killed as slow.
func startTopology(pl *plan, bodies [][]byte, outDir string, hk hooks) (*topology, error) {
	p := pl.p
	t := &topology{}
	var opts []webserver.Option
	if p.history {
		opts = append(opts, webserver.WithHistoryExtension(true))
	}
	if p.push {
		opts = append(opts, webserver.WithPushValues(0))
	}
	t.origin = webserver.NewOrigin(opts...)
	var oh http.Handler = t.origin
	if hk.wrapOrigin != nil {
		oh = hk.wrapOrigin(oh)
	}
	var err error
	if t.originSrv, err = startServer(oh); err != nil {
		return nil, err
	}
	for i, k := range pl.keys {
		t.origin.Set(k.path, bodies[i], "text/plain")
		if k.group != "" {
			t.origin.SetTolerances(k.path, httpx.Tolerances{Delta: delta, Group: k.group, GroupDelta: groupDelta})
		}
	}
	t.populatedAt = time.Now()
	var prefixes []string
	for s := 0; s < keyShards; s++ {
		prefixes = append(prefixes, fmt.Sprintf("/s%d/", s))
	}
	upstream := t.originSrv.url
	names := nodeNames[p.hops]
	for i, name := range names {
		isLeaf := i == len(names)-1
		up, err := url.Parse(upstream)
		if err != nil {
			t.close()
			return nil, err
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}
		var rt http.RoundTripper = tr
		if isLeaf && hk.wrapLeafClient != nil {
			rt = hk.wrapLeafClient(rt)
		}
		cfg := webproxy.Config{
			Origin:            up,
			Client:            &http.Client{Transport: rt, Timeout: 10 * time.Second},
			DefaultDelta:      delta,
			DefaultGroupDelta: groupDelta,
			Bounds:            core.TTRBounds{Min: ttrMin, Max: ttrMax},
			Mode:              core.TriggerAll,
		}
		if hk.observer != nil {
			cfg.PollObserver = hk.observer(name)
		}
		if p.push {
			cfg.PushURL, _ = url.Parse(upstream + "/events")
			cfg.PushValues = true
			cfg.PushInterest = true
			cfg.PushPrefixes = prefixes
			cfg.RelayEvents = !isLeaf
		}
		if isLeaf {
			cfg.MaxObjects = p.leafMaxObjects
			if p.disk {
				if err := os.MkdirAll(outDir, 0o755); err != nil {
					t.close()
					return nil, err
				}
				if t.diskDir, err = os.MkdirTemp(outDir, "disk-"); err != nil {
					t.close()
					return nil, err
				}
				cfg.DiskDir = t.diskDir
				cfg.DiskMaxBytes = 64 << 20
			}
		}
		px, err := webproxy.New(cfg)
		if err != nil {
			tr.CloseIdleConnections()
			t.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		px.Start()
		n := &node{name: name, proxy: px, transport: tr}
		t.nodes = append(t.nodes, n)
		var h http.Handler = px
		if isLeaf && hk.wrapLeaf != nil {
			h = hk.wrapLeaf(h)
		}
		if n.server, err = startServer(h); err != nil {
			t.close()
			return nil, err
		}
		upstream = n.server.url
	}
	if p.push {
		deadline := time.Now().Add(5 * time.Second)
		for _, n := range t.nodes {
			for !n.proxy.PushStats().Connected {
				if time.Now().After(deadline) {
					t.close()
					return nil, fmt.Errorf("%s: push subscription did not connect", n.name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return t, nil
}

// close stops every node leaf-first, then the origin. It reports what
// survived: an address still accepting connections. The disk tier's
// directory is left for removeDiskDirs.
func (t *topology) close() []string {
	var addrs []string
	stop := func(s *server) {
		if s == nil {
			return
		}
		addrs = append(addrs, s.ln.Addr().String())
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_ = s.srv.Shutdown(ctx) // event streams never go idle; Close ends them
		cancel()
		_ = s.srv.Close()
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		n.proxy.Close()
		stop(n.server)
		n.transport.CloseIdleConnections()
	}
	stop(t.originSrv)
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections() // the push subscribers' client
	}
	var leaks []string
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			leaks = append(leaks, "listener "+a+" still accepts")
		}
	}
	return leaks
}

// removeDiskDirs removes the disk tiers' temporary directories and reports
// any that survive. A run removes them all at its end, not between set-ups:
// unlinking 16k files sets ext4 to work (journal commits, discards) that
// slows whatever runs next, and that would be the next timed set-up.
func removeDiskDirs(dirs []string) []string {
	var leaks []string
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			leaks = append(leaks, "temp dir: "+err.Error())
		} else if _, err := os.Stat(d); err == nil {
			leaks = append(leaks, "temp dir "+d+" survives")
		}
	}
	return leaks
}

// waitGoroutines waits for the goroutine count to fall back to base and
// reports a leak when it has not within the limit.
func waitGoroutines(base int, limit time.Duration) []string {
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return []string{fmt.Sprintf("%d goroutines survive, %d before the workload", runtime.NumGoroutine(), base)}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
