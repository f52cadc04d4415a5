// Command perfbench is the repository benchmark: it cold-starts the real
// serving stack in-process from a scorer bundle, drives it with seeded
// closed-loop NDJSON traffic over loopback keep-alive connections, checks
// every verdict, and prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds it and the
// bundle first:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate run whose layer calls are timed. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clmids/internal/core"
)

const (
	// setupRuns is how many cold starts one run times; setup_s is their
	// median.
	setupRuns = 15
	// warmup runs traffic before every timed phase, so caches fill and
	// lazy set-up finishes first.
	warmup = time.Second
	// encodeLines caps the distinct lines bpe.encode_us_per_line encodes.
	encodeLines = 20000
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line flags.
type options struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	bundle  string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hot | novel | routed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bundle := fs.String("bundle", "", "scorer bundle directory (run.sh builds it)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		return options{}, fmt.Errorf("unknown workload %q (want hot | novel | routed)", *name)
	case *seconds < 1:
		return options{}, errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return options{}, errors.New("--trace must be 0 or 1")
	case *bundle == "":
		return options{}, errors.New("--bundle is required")
	}
	return options{w, *seed, *seconds, *trace == 1, *bundle}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord says what ran where; it precedes the result line.
type runRecord struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	Nproc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	BundleVersion string  `json:"bundle_version"`
	Connections   int     `json:"connections"`
	RequestLines  int     `json:"request_lines"`
	Seconds       int     `json:"seconds"`
	MeasuredS     float64 `json:"measured_s"`
	Requests      int     `json:"requests"`
	Lines         int64   `json:"lines"`
	Samples       int     `json:"sampled_lines_checked"`
	Exhausted     bool    `json:"traffic_exhausted"`
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	lb, err := core.LoadScorerBundle(o.bundle)
	if err != nil {
		return fmt.Errorf("loading the bundle: %w", err)
	}
	nconn := runtime.NumCPU()
	traffic, err := buildTraffic(o.w, o.seed, o.seconds, nconn)
	if err != nil {
		return err
	}
	rec := runRecord{
		Workload: o.w.name, Seed: o.seed, Trace: o.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		BundleVersion: lb.Manifest.Version, Connections: nconn,
		RequestLines: o.w.reqLines, Seconds: o.seconds,
	}
	var m []metric
	var chk checkResult
	if o.trace {
		m, chk, err = traced(o, traffic, &rec)
	} else {
		m, chk, err = untraced(o, traffic, &rec)
	}
	if err != nil && chk.ok() {
		return err
	}
	runtime.KeepAlive(traffic)
	res := result{
		Correct:   chk.ok(),
		Attempted: chk.sent,
		Failed:    chk.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, x := range m {
		res.Metrics[x.Name] = metricValue{x.Value, x.Unit}
	}
	line, err := json.Marshal(map[string]runRecord{"run": rec})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("output check failed: %d of %d events (first: %v)", chk.failed, chk.sent, chk.firstErr)
	}
	return nil
}

// checkResult tallies the output check over every phase of a run.
type checkResult struct {
	sent, failed int64
	firstErr     error
}

// ok reports whether every check passed.
func (c *checkResult) ok() bool { return c.failed == 0 && c.firstErr == nil }

func (c *checkResult) note(err error, sent, failed int64) {
	c.sent += sent
	c.failed += failed
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
}

// coldStarts cold-starts the untraced stack setupRuns times from the bundle,
// keeps the last one running, and returns it with every start's timings.
// Each start begins from a collected heap, as a fresh process would.
func coldStarts(o options) (*stack, []coldStart, error) {
	var times []coldStart
	for i := 0; ; i++ {
		runtime.GC()
		st, cs, err := startStack(o.bundle, o.w.routed, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		times = append(times, cs)
		if i == setupRuns-1 {
			return st, times, nil
		}
		st.close()
	}
}

// drive warms the stack up, then runs one timed phase against it, and
// checks the sampled line scores of both against a direct cascade Score.
func drive(o options, st *stack, traffic []*connTraffic, chk *checkResult, timed func()) (phaseTotals, []connResult, error) {
	cs := newClients(st.url, traffic)
	defer closeClients(cs)
	warm, _ := phase(cs, warmup)
	runtime.GC()
	var p phaseTotals
	var ms0, ms1 runtime.MemStats
	if timed != nil {
		timed()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	res, wall := phase(cs, time.Duration(o.seconds)*time.Second)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	p.Wall, p.CPU, p.Mallocs = wall, cpu1-cpu0, ms1.Mallocs-ms0.Mallocs
	var samples []sample
	for _, r := range append(warm, res...) {
		chk.note(r.err, r.sent, r.sent-r.delivered)
		samples = append(samples, r.samples...)
	}
	for _, r := range res {
		p.Sent += r.sent
		p.Delivered += r.delivered
		p.LatenciesMS = append(p.LatenciesMS, r.latMS...)
	}
	bad, err := checkSamples(o.bundle, samples, chk)
	if err != nil {
		return p, nil, err
	}
	p.Delivered -= int64(bad)
	p.Samples = len(samples)
	return p, res, nil
}

// checkSamples compares every sampled delivered line score with the
// bundle cascade's direct Score of that line alone, and returns how many
// differ. A mismatch fails its event.
func checkSamples(dir string, samples []sample, chk *checkResult) (int, error) {
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		return 0, err
	}
	ref, err := core.BuildCascade(lb.Scorer, lb.Cascade)
	if err != nil {
		return 0, err
	}
	if len(samples) == 0 {
		chk.note(errors.New("no sampled line was delivered"), 0, 0)
		return 0, nil
	}
	bad := 0
	for _, s := range samples {
		got, err := ref.Score([]string{s.line})
		if err != nil {
			return 0, err
		}
		if got[0] != s.score {
			bad++
			chk.note(fmt.Errorf("line %q scored %v served, %v direct", s.line, s.score, got[0]), 0, 1)
		}
	}
	return bad, nil
}

// untraced measures the end-to-end metrics.
func untraced(o options, traffic []*connTraffic, rec *runRecord) ([]metric, checkResult, error) {
	var chk checkResult
	heapBefore := liveHeap()
	st, starts, err := coldStarts(o)
	if err != nil {
		return nil, chk, err
	}
	defer st.close()
	p, res, err := drive(o, st, traffic, &chk, nil)
	if err != nil {
		return nil, chk, err
	}
	p.HeapBefore, p.HeapAfter = heapBefore, liveHeap()
	for _, cs := range starts {
		p.Setups = append(p.Setups, cs.total)
	}
	fillRecord(rec, p, res)
	m, err := endToEnd(p)
	return m, chk, err
}

// traced measures the per-layer metrics: an untraced phase for the
// reference throughput, then a phase on a stack whose layer calls are
// timed.
func traced(o options, traffic []*connTraffic, rec *runRecord) ([]metric, checkResult, error) {
	var chk checkResult
	var t layerTotals
	st, starts, err := coldStarts(o)
	if err != nil {
		return nil, chk, err
	}
	for _, cs := range starts {
		t.BundleLoad = append(t.BundleLoad, cs.load)
		t.CascadeBuild = append(t.CascadeBuild, cs.cascade)
		t.ReplicateTime = append(t.ReplicateTime, cs.replicate)
	}
	p, _, err := drive(o, st, traffic, &chk, nil)
	st.close()
	if err != nil {
		return nil, chk, err
	}
	t.UntracedLPS = float64(p.Delivered) / p.Wall.Seconds()

	sp := &spans{}
	if st, _, err = startStack(o.bundle, o.w.routed, sp); err != nil {
		return nil, chk, fmt.Errorf("traced cold start: %w", err)
	}
	defer st.close()
	var before counters
	p, res, err := drive(o, st, traffic, &chk, func() {
		before = readCounters(st)
		sp.reset()
	})
	if err != nil {
		return nil, chk, err
	}
	after := readCounters(st)
	if err := after.forwarded(); err != nil {
		return nil, chk, err
	}
	fillRecord(rec, p, res)
	t.Lines = p.Delivered
	t.TraceLPS = float64(p.Delivered) / p.Wall.Seconds()
	t.Handler, t.Replica, t.Route, t.Submit = sp.handler.total(), sp.replica.total(), sp.route.total(), sp.submit.total()
	t.Cascade, t.Triage, t.Confirm = sp.cascade.total(), sp.triage.total(), sp.confirm.total()
	after.into(&t, before)
	for _, r := range res {
		t.Gen += r.gen
	}

	h0 := liveHeap()
	var hw int64
	for _, svc := range st.services() {
		hw = max(hw, svc.HighWater())
	}
	for _, svc := range st.services() {
		t.Evicted += int64(svc.EvictIdle(hw + svc.Config().IdleTimeout + 1))
	}
	t.SessionHeap = float64(h0) - float64(liveHeap())

	if t.EncodeUSPerLine, err = encodeCost(o.bundle, traffic, res); err != nil {
		return nil, chk, err
	}
	m := layers(t)
	for _, x := range m {
		if x.Name == "trace.layer_sum_frac" && math.Abs(x.Value-1) > layerSumTolerance {
			fmt.Fprintf(os.Stderr, "perfbench: layer times sum to %.3f of the handler time, outside 1±%.2f\n", x.Value, layerSumTolerance)
		}
	}
	return m, chk, nil
}

// layerSumTolerance is how far the per-layer times, each clamped at zero,
// may stray from the handler time they decompose.
const layerSumTolerance = 0.05

// fillRecord adds a timed phase's size to the run record.
func fillRecord(rec *runRecord, p phaseTotals, res []connResult) {
	rec.MeasuredS = p.Wall.Seconds()
	rec.Requests = len(p.LatenciesMS)
	rec.Lines = p.Delivered
	rec.Samples = p.Samples
	for _, r := range res {
		if r.exhausted {
			rec.Exhausted = true
			fmt.Fprintln(os.Stderr, "perfbench: the workload's traffic ran out before the timed phase ended")
		}
	}
}

// encodeCost times Tokenizer.AppendForModel on a cold encode cache, in
// microseconds per line, over up to encodeLines distinct lines from the
// head of each connection's traffic, as many events as the timed phase
// sent there.
func encodeCost(dir string, traffic []*connTraffic, res []connResult) (float64, error) {
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	var lines []string
	for c, ct := range traffic {
		for _, ev := range ct.events[:min(int(res[c].sent), len(ct.events))] {
			if k := normalize(ev.line); !seen[k] && len(lines) < encodeLines {
				seen[k] = true
				lines = append(lines, ev.line)
			}
		}
	}
	if len(lines) == 0 {
		return 0, errors.New("no line to encode")
	}
	maxLen := lb.Model.Encoder.Config().MaxSeqLen
	lb.Tok.ResetEncodeCache()
	buf := make([]int, 0, maxLen)
	start := time.Now()
	for _, l := range lines {
		buf = lb.Tok.AppendForModel(buf[:0], l, maxLen)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(lines)), nil
}

// counters are the stack's own counters, read from the same stats
// snapshots /stats serves.
type counters struct {
	events, scored, cleared, triaged, escalated int64
	hits, misses, encHits, encMisses            int64
	active                                      int64
	replicaEvents                               []int64
	retries, failovers                          int64
	cascadeSeen, cacheSeen                      bool
}

func readCounters(st *stack) counters {
	var c counters
	for _, svc := range st.services() {
		s := svc.Stats()
		c.events += s.Events
		c.scored += s.ScoredInputs
		c.active += int64(s.ActiveSessions)
		c.replicaEvents = append(c.replicaEvents, s.Events)
		if s.Cascade != nil {
			c.cascadeSeen = true
			c.cleared += s.Cascade.Cleared
			c.triaged += s.Cascade.Triaged
			c.escalated += s.Cascade.Escalated
		}
		for _, sh := range s.Shards {
			if sh.Cache != nil {
				c.cacheSeen = true
				c.hits += sh.Cache.Hits
				c.misses += sh.Cache.Misses
				c.encHits += sh.Cache.EncodedHits
				c.encMisses += sh.Cache.EncodedMisses
			}
		}
	}
	if st.rt != nil {
		rs := st.rt.Stats()
		c.retries, c.failovers = rs.Retries, rs.Failovers
	}
	return c
}

// forwarded fails when the traced wrappers hid the cascade or cache
// counters from the service's stats.
func (c counters) forwarded() error {
	if !c.cascadeSeen || !c.cacheSeen {
		return errors.New("the traced stack's stats lack the cascade or cache counters")
	}
	return nil
}

// into stores the counter deltas since before into t.
func (c counters) into(t *layerTotals, before counters) {
	t.Events, t.ScoredInputs = c.events-before.events, c.scored-before.scored
	t.Cleared, t.Triaged, t.Escalated = c.cleared-before.cleared, c.triaged-before.triaged, c.escalated-before.escalated
	t.CacheHits, t.CacheMisses = c.hits-before.hits, c.misses-before.misses
	t.EncodedHits, t.EncodedMisses = c.encHits-before.encHits, c.encMisses-before.encMisses
	t.ActiveSessions = c.active
	t.Retries, t.Failovers = c.retries-before.retries, c.failovers-before.failovers
	for i, n := range c.replicaEvents {
		t.ReplicaEvents = append(t.ReplicaEvents, n-before.replicaEvents[i])
	}
}

// liveHeap is the heap in use after two forced collections: the first
// frees garbage, the second what the first's finalizers and pool clearing
// released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the host's CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
