package main

// Cold starts of the serving stack, as cmd/clmserve assembles it: the
// listener opens first, the bundle loads, the cascade is built and
// replicated per shard, the sharded service is attached, and the stack
// counts as set up once /readyz answers 200. A routed stack starts two
// one-shard replicas this way, then a fleet router over them with its own
// front listener.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"clmids/internal/core"
	"clmids/internal/fleet"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// chunk is the /score handler's events per Submit and the shard worker's
// coalescing cap: clmserve's -batch default.
const chunk = 512

// replicaHosts name the routed stack's replicas. The ring hashes these
// names, not the kernel-chosen loopback ports the names dial, so the
// user-to-replica split is the same on every run.
var replicaHosts = []string{"replica-0", "replica-1"}

// coldStart is one set-up's time to ready and its core-layer parts, summed
// over the replicas of a routed stack.
type coldStart struct {
	total, load, cascade, replicate time.Duration
}

// node is one clmserve replica: its service and HTTP server.
type node struct {
	svc  *stream.Service
	srv  *http.Server
	addr string
}

// stack is a running serving stack: one node, or a router over nodes.
type stack struct {
	nodes []*node
	rt    *fleet.Router
	hop   *http.Transport // the router's client transport
	front *http.Server
	url   string // where the load generator posts /score
}

// startStack cold-starts a stack from the bundle at dir. sp, when non-nil,
// wraps every layer boundary in a timed span.
func startStack(dir string, routed bool, sp *spans) (*stack, coldStart, error) {
	var cs coldStart
	st := &stack{}
	start := time.Now()
	if !routed {
		n, err := startNode(dir, runtime.GOMAXPROCS(0), false, sp, &cs)
		if err != nil {
			return nil, cs, err
		}
		st.nodes, st.url = []*node{n}, "http://"+n.addr
		cs.total = time.Since(start)
		return st, cs, nil
	}
	dial := map[string]string{}
	urls := make([]string, len(replicaHosts))
	for i, host := range replicaHosts {
		n, err := startNode(dir, 1, true, sp, &cs)
		if err != nil {
			st.close()
			return nil, cs, err
		}
		st.nodes = append(st.nodes, n)
		dial[host+":80"] = n.addr
		urls[i] = "http://" + host
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	base := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := dial[addr]; ok {
			addr = real
		}
		return base(ctx, network, addr)
	}
	rt, err := fleet.New(fleet.Config{
		Replicas: urls,
		Client:   &http.Client{Transport: tr},
		// Admit each replica on Start's synchronous probe round, so set-up
		// measures work rather than the probe period.
		ReadmitAfter: 1,
		Chunk:        chunk,
	})
	if err != nil {
		st.close()
		return nil, cs, err
	}
	rt.Start()
	st.rt, st.hop = rt, tr
	var h http.Handler = rt.Handler()
	if sp != nil {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/score", timedHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serve.HandleScoreFunc(timedSubmit(rt.Route, &sp.route), chunk, w, r)
		}), &sp.handler))
		h = mux
	}
	front, addr, err := listen(h)
	if err != nil {
		st.close()
		return nil, cs, err
	}
	st.front, st.url = front, "http://"+addr
	if !rt.Ready() {
		st.close()
		return nil, cs, errors.New("fleet router not ready after its first probe round")
	}
	if err := waitReady(st.url); err != nil {
		st.close()
		return nil, cs, err
	}
	cs.total = time.Since(start)
	return st, cs, nil
}

// startNode cold-starts one replica with the given shard count and adds its
// core-layer times to cs. A routed replica's handler time also counts into
// the replica span.
func startNode(dir string, shards int, routed bool, sp *spans, cs *coldStart) (*node, error) {
	d := serve.NewDaemon(dir, true)
	var h http.Handler = serve.NewHandler(d, chunk)
	if sp != nil {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		score := func(w http.ResponseWriter, r *http.Request) {
			svc, ok := d.Service()
			if !ok {
				http.Error(w, "scorer loading, not ready", http.StatusServiceUnavailable)
				return
			}
			serve.HandleScoreFunc(timedSubmit(svc.SubmitContext, &sp.submit), chunk, w, r)
		}
		spans := []*span{&sp.handler}
		if routed {
			spans = append(spans, &sp.replica)
		}
		mux.Handle("/score", timedHandler(http.HandlerFunc(score), spans...))
		h = mux
	}
	srv, addr, err := listen(h)
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, addr: addr}
	t0 := time.Now()
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		n.close()
		return nil, err
	}
	t1 := time.Now()
	var scorer tuning.Scorer
	if sp != nil {
		if lb.Cascade == nil {
			err = errors.New("bundle has no cascade section")
		} else {
			scorer, err = tracedCascade(lb.Scorer, lb.Cascade.Rarity, lb.Cascade.Params, sp)
		}
	} else {
		scorer, err = core.BuildCascade(lb.Scorer, lb.Cascade)
	}
	if err != nil {
		n.close()
		return nil, err
	}
	t2 := time.Now()
	replicas, err := core.ReplicateScorer(scorer, shards)
	if err != nil {
		n.close()
		return nil, err
	}
	t3 := time.Now()
	cs.load += t1.Sub(t0)
	cs.cascade += t2.Sub(t1)
	cs.replicate += t3.Sub(t2)
	sd, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
	if err != nil {
		n.close()
		return nil, err
	}
	sd.SetScorerVersion(lb.Manifest.Version)
	sd.SetModality(lb.Modality())
	n.svc = stream.NewShardedService(sd, stream.ServiceConfig{QueueRequests: 64, BatchEvents: chunk})
	d.Attach(n.svc, lb.Modality())
	if err := waitReady("http://" + addr); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// probeClient polls /readyz. It keeps no idle connections, so a closed
// stack leaves nothing behind.
var probeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// waitReady polls base/readyz until it answers 200 "ready ...".
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probeClient.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.HasPrefix(string(body), "ready") {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (n *node) close() {
	n.srv.Close()
	if n.svc != nil {
		n.svc.Close()
	}
}

// close stops the router, the front, and every replica, and waits for
// their workers.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.rt != nil {
		s.rt.Stop()
		s.hop.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// services returns every replica's stream service.
func (s *stack) services() []*stream.Service {
	out := make([]*stream.Service, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.svc
	}
	return out
}
