package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"clmids/internal/stream"
)

func byName(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestSamplesBeyondP99(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {100, 1}, {999, 9}, {1000, 10}, {1099, 10}, {1100, 11}} {
		if got := samplesBeyond(c.n, 0.99); got != c.want {
			t.Errorf("samplesBeyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func phaseOf(requests int) phaseTotals {
	p := phaseTotals{
		Sent: 2000, Delivered: 1600,
		Wall:       2 * time.Second,
		Mallocs:    8000,
		CPU:        4 * time.Millisecond,
		HeapBefore: 1 << 20, HeapAfter: 5 << 20,
		Setups: []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond},
	}
	for i := 0; i < requests; i++ {
		p.LatenciesMS = append(p.LatenciesMS, float64(i+1))
	}
	return p
}

func TestEndToEndRatiosAndBases(t *testing.T) {
	ms, err := endToEnd(phaseOf(1000))
	if err != nil {
		t.Fatal(err)
	}
	m := byName(ms)
	want := map[string]float64{
		"throughput_lps":  800,  // 1600 delivered / 2 s
		"latency_p50_ms":  500,  // nearest rank of 1..1000
		"latency_p99_ms":  990,  // ten samples beyond
		"delivered_frac":  0.8,  // 1600 delivered / 2000 sent
		"setup_s":         0.02, // median of three cold starts
		"live_heap_mb":    4,    // 5 MiB after - 1 MiB before
		"allocs_per_line": 5,    // 8000 mallocs / 1600 delivered
		"cpu_us_per_line": 2.5,  // 4 ms / 1600 delivered
	}
	if len(m) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(m), len(want))
	}
	for name, v := range want {
		if !near(m[name].Value, v) {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
}

func TestEndToEndNeedsTenSamplesBeyondP99(t *testing.T) {
	if _, err := endToEnd(phaseOf(999)); err == nil {
		t.Fatal("999 requests give p99 nine samples beyond it; want an error")
	}
	p := phaseOf(1000)
	p.Delivered = 0
	if _, err := endToEnd(p); err == nil {
		t.Fatal("nothing delivered; want an error")
	}
}

func TestLayerRatiosAndBases(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	lt := layerTotals{
		Lines:   1000,
		Handler: ms(30), Replica: ms(10), Route: ms(18), Submit: ms(8),
		Cascade: ms(6), Triage: ms(3), Confirm: ms(1),
		Events: 1000, ScoredInputs: 600,
		Cleared: 150, Triaged: 450, Escalated: 30,
		CacheHits: 90, CacheMisses: 10, EncodedHits: 1, EncodedMisses: 3,
		ActiveSessions: 42, SessionHeap: 3000, Evicted: 10,
		EncodeUSPerLine: 7,
		ReplicaEvents:   []int64{700, 300},
		Retries:         2, Failovers: 1,
		BundleLoad:    []time.Duration{ms(5), ms(7), ms(6)},
		CascadeBuild:  []time.Duration{ms(1)},
		ReplicateTime: []time.Duration{ms(2), ms(4)},
		Gen:           ms(1),
		UntracedLPS:   100, TraceLPS: 95,
	}
	m := byName(layers(lt))
	want := map[string]float64{
		// Per-line times: summed span durations over 1000 delivered lines.
		"serve.handler_us_per_line":       20, // front handler: 30 ms all handlers - 10 ms replicas
		"serve.self_us_per_line":          4,  // 30 - 8 submit - 18 route
		"stream.submit_us_per_line":       8,
		"stream.self_us_per_line":         2, // 8 submit - 6 cascade
		"tuning.cascade_self_us_per_line": 2, // 6 - 3 triage - 1 confirm
		"tuning.triage_us_per_line":       3,
		"tuning.confirm_us_per_line":      1,
		"fleet.route_us_per_line":         18,
		"fleet.replica_us_per_line":       10,
		"fleet.self_us_per_line":          8, // 18 route - 10 replicas
		"gen.us_per_line":                 1,
		"bpe.encode_us_per_line":          7,
		// Ratios, each over its own base.
		"stream.dedup_frac":       0.4,  // (1000 - 600 scored) / 1000 events
		"tuning.clear_frac":       0.25, // 150 cleared / 600 scored inputs
		"tuning.escalate_frac":    0.05, // 30 escalated / 600 scored inputs
		"tuning.cache_hit_frac":   0.9,  // 90 / 100 lookups
		"tuning.encoded_hit_frac": 0.25, // 1 / 4 lookups
		"fleet.max_replica_share": 0.7,  // 700 / 1000 replica events
		"stream.session_bytes":    300,  // 3000 B / 10 evicted sessions
		"stream.active_sessions":  42,   // count
		"fleet.retries":           2,    // count
		"fleet.failovers":         1,    // count
		"core.bundle_load_ms":     6,    // median of cold starts
		"core.cascade_build_ms":   1,    // median of cold starts
		"core.replicate_ms":       3,    // median of cold starts
		"trace.overhead_frac":     0.05, // 1 - 95/100
		"trace.layer_sum_frac":    1,    // no negative part
	}
	for name, v := range want {
		got, ok := m[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if !near(got.Value, v) {
			t.Errorf("%s = %v, want %v", name, got.Value, v)
		}
	}
	if len(m) != len(want) {
		t.Errorf("got %d metrics, want %d", len(m), len(want))
	}
	// The parts of the handler time add up to it exactly.
	sum := m["serve.self_us_per_line"].Value + m["fleet.self_us_per_line"].Value +
		m["stream.self_us_per_line"].Value + m["tuning.cascade_self_us_per_line"].Value +
		m["tuning.triage_us_per_line"].Value + m["tuning.confirm_us_per_line"].Value
	if !near(sum, m["serve.handler_us_per_line"].Value) {
		t.Errorf("layer parts sum to %v, handler is %v", sum, m["serve.handler_us_per_line"].Value)
	}
	// A child span longer than its parent shows as a layer sum above one.
	lt.Cascade = ms(10)
	if got := byName(layers(lt))["trace.layer_sum_frac"].Value; got <= 1 {
		t.Errorf("layer sum with a negative stream self time = %v, want > 1", got)
	}
}

// serverReply encodes verdicts the way the /score handler does.
func serverReply(t *testing.T, vs ...stream.Verdict) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range vs {
		if err := enc.Encode(&vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestCheckVerdicts(t *testing.T) {
	evs := []event{
		{user: "u1", line: `echo "<a&b>" | tee /tmp/x`, time: 1651363201},
		{user: "u2", line: "ls -la", time: 1651363202},
	}
	r, err := encode(evs, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.sample = 1
	v := func(ev event, ls float64) stream.Verdict {
		return stream.Verdict{User: ev.user, Time: ev.time, Line: ev.line, LineScore: ls, ContextScore: ls, SessionScore: 0.5, SessionLines: 1}
	}
	ls, err := checkVerdicts(serverReply(t, v(evs[0], 0.25), v(evs[1], 0.75)), &r)
	if err != nil || ls != 0.75 {
		t.Fatalf("good reply: line score %v, err %v; want 0.75, nil", ls, err)
	}
	withContext := v(evs[1], 0.75)
	withContext.Context = `a "quoted", {context}`
	if _, err := checkVerdicts(serverReply(t, v(evs[0], 0.25), withContext), &r); err != nil {
		t.Errorf("a verdict with a context string: %v", err)
	}
	bad := map[string][]byte{
		"swapped":     serverReply(t, v(evs[1], 0.75), v(evs[0], 0.25)),
		"missing":     serverReply(t, v(evs[0], 0.25)),
		"extra":       serverReply(t, v(evs[0], 0.25), v(evs[1], 0.75), v(evs[1], 0.75)),
		"error":       append(serverReply(t, v(evs[0], 0.25)), `{"error":"stream: shard queue full","code":"overloaded"}`+"\n"...),
		"no scores":   []byte(`{"user":"u1","time":1651363201,"line":"echo \"<a&b>\" | tee /tmp/x","line_alert":false}` + "\n" + string(serverReply(t, v(evs[1], 0.75)))),
		"wrong time":  serverReply(t, v(event{"u1", evs[0].line, 1651363200}, 0.25), v(evs[1], 0.75)),
		"not finite":  []byte(strings.Replace(string(serverReply(t, v(evs[0], 0.25), v(evs[1], 0.75))), `"line_score":0.75`, `"line_score":NaN`, 1)),
		"no newline":  bytes.TrimSuffix(serverReply(t, v(evs[0], 0.25), v(evs[1], 0.75)), []byte("\n")),
		"empty reply": nil,
	}
	for name, body := range bad {
		if _, err := checkVerdicts(body, &r); err == nil {
			t.Errorf("%s reply passed the check", name)
		}
	}
}

func TestShiftTimesKeepsWidth(t *testing.T) {
	ct := &connTraffic{events: []event{{user: "u", line: "id", time: 1651363200}}}
	r, err := encode(ct.events, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.shiftTimes(&r, 1000); err != nil {
		t.Fatal(err)
	}
	if want := `{"user":"u","time":1651364200,"line":"id"}` + "\n"; string(r.body) != want {
		t.Errorf("shifted body %q, want %q", r.body, want)
	}
	if err := ct.shiftTimes(&r, 9e9); err == nil {
		t.Error("a shift past ten digits was accepted")
	}
}

func TestWorkloadFilters(t *testing.T) {
	evs := []event{{line: "a"}, {line: "b  c"}, {line: "a"}, {line: "b c"}, {line: "d"}, {line: "a"}}
	if got := mostFrequent(append([]event(nil), evs...), 1); len(got) != 3 || got[0].line != "a" {
		t.Errorf("most frequent 1 line kept %v, want the three a events", got)
	}
	// "b  c" and "b c" are one line to the caches: two events.
	if got := mostFrequent(append([]event(nil), evs...), 2); len(got) != 5 {
		t.Errorf("most frequent 2 lines kept %d events, want 5", len(got))
	}
}
