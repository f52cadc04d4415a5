package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below it.
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)]
}

// rankOf is the zero-based nearest-rank index of the q-quantile of n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile of n samples: the support a tail percentile has.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, q)
}

// median is the middle of xs (the mean of the two middle values for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// perLineUS is a summed duration spread over lines, in microseconds.
func perLineUS(d time.Duration, lines int64) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(lines)
}

// ratio is part/base, or 0 when the base is empty (nothing to divide).
func ratio(part, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(part) / float64(base)
}

// phaseTotals is what one untraced timed phase measured.
type phaseTotals struct {
	// Sent counts events posted; Delivered the events whose verdict passed
	// the output check. A failed request delivers none of its events.
	Sent, Delivered int64
	// Wall is the timed phase's wall time, first send to last reply.
	Wall time.Duration
	// LatenciesMS holds one client-observed time per /score request.
	LatenciesMS []float64
	// Mallocs is the runtime's malloc count over the phase; CPU is the
	// process's user+sys time over it.
	Mallocs uint64
	CPU     time.Duration
	// HeapBefore is the live heap before set-up, HeapAfter the live heap at
	// the end of the phase, each read after two forced collections.
	HeapBefore, HeapAfter uint64
	// Setups are the repeated cold starts' bundle-to-ready times.
	Setups []time.Duration
	// Samples counts the delivered line scores checked against a direct
	// Score, over the warm-up and the timed phase.
	Samples int
}

// endToEnd derives the user-visible metrics of a phase. It fails when the
// phase is too small for its metrics: no delivered line, or too few
// requests for p99 to have minBeyond samples above it.
func endToEnd(p phaseTotals) ([]metric, error) {
	if p.Delivered == 0 || p.Sent == 0 {
		return nil, fmt.Errorf("no line was delivered")
	}
	if n := samplesBeyond(len(p.LatenciesMS), 0.99); n < minBeyond {
		return nil, fmt.Errorf("%d requests leave %d samples beyond p99, need %d", len(p.LatenciesMS), n, minBeyond)
	}
	if len(p.Setups) == 0 {
		return nil, fmt.Errorf("no cold start was timed")
	}
	lat := append([]float64(nil), p.LatenciesMS...)
	return []metric{
		{"throughput_lps", float64(p.Delivered) / p.Wall.Seconds(), "lines/s"},
		{"latency_p50_ms", percentile(lat, 0.50), "ms"},
		{"latency_p99_ms", percentile(lat, 0.99), "ms"},
		{"delivered_frac", ratio(p.Delivered, p.Sent), "frac"},
		{"setup_s", medianDuration(p.Setups), "s"},
		{"live_heap_mb", (float64(p.HeapAfter) - float64(p.HeapBefore)) / (1 << 20), "MiB"},
		{"allocs_per_line", float64(p.Mallocs) / float64(p.Delivered), "count"},
		{"cpu_us_per_line", perLineUS(p.CPU, p.Delivered), "us"},
	}, nil
}

// layerTotals is what the traced run measured: summed span durations from
// the wrappers around each layer's public calls, and counter deltas over
// the traced phase. Spans of concurrent calls add up, so a per-line time is
// busy time per line, not wall time per line.
type layerTotals struct {
	// Lines is the traced phase's delivered lines, the base of every
	// per-line figure.
	Lines int64
	// Handler sums every /score handler: the single node's, or the router
	// front's plus every replica's. Replica is the replicas' share of it.
	Handler, Replica time.Duration
	// Route sums fleet.Router.Route; Submit sums stream.Service.SubmitContext.
	Route, Submit time.Duration
	// Cascade sums the cascade's Score; Triage and Confirm its two model
	// rungs' Score.
	Cascade, Triage, Confirm time.Duration

	// Events and ScoredInputs are the stream layer's counters: events in,
	// distinct strings handed to the scorer after within-batch dedup.
	Events, ScoredInputs int64
	// Cleared, Triaged and Escalated are the cascade's per-rung counters.
	Cleared, Triaged, Escalated int64
	// CacheHits/Misses count the embedding LRU, EncodedHits/Misses the
	// encoded-line LRU.
	CacheHits, CacheMisses, EncodedHits, EncodedMisses int64

	// ActiveSessions is the live session count at the end of the phase;
	// SessionHeap the heap EvictIdle released when it evicted Evicted
	// sessions after it.
	ActiveSessions  int64
	SessionHeap     float64
	Evicted         int64
	EncodeUSPerLine float64

	// ReplicaEvents counts events per replica (one entry on a single node).
	ReplicaEvents         []int64
	Retries, Failovers    int64
	BundleLoad            []time.Duration
	CascadeBuild          []time.Duration
	ReplicateTime         []time.Duration
	Gen                   time.Duration
	UntracedLPS, TraceLPS float64
}

// layers derives the per-layer metrics. Self times are a span's summed
// duration minus its children's, so the top-level handler time is exactly
// serve.self + fleet.self + stream.self + tuning's three parts; layerSum
// reports how far the parts, each clamped at zero, stray from it.
func layers(t layerTotals) []metric {
	us := func(d time.Duration) float64 { return perLineUS(d, t.Lines) }
	top := t.Handler - t.Replica
	parts := []time.Duration{
		t.Handler - t.Submit - t.Route, // serve self
		t.Route - t.Replica,            // fleet self
		t.Submit - t.Cascade,           // stream self
		t.Cascade - t.Triage - t.Confirm,
		t.Triage,
		t.Confirm,
	}
	var clamped time.Duration
	for _, p := range parts {
		if p > 0 {
			clamped += p
		}
	}
	var maxEv, allEv int64
	for _, n := range t.ReplicaEvents {
		allEv += n
		if n > maxEv {
			maxEv = n
		}
	}
	scored := t.Cleared + t.Triaged
	sessBytes := 0.0
	if t.Evicted > 0 {
		sessBytes = t.SessionHeap / float64(t.Evicted)
	}
	overhead := 0.0
	if t.UntracedLPS > 0 {
		overhead = 1 - t.TraceLPS/t.UntracedLPS
	}
	ms := func(ds []time.Duration) float64 { return medianDuration(ds) * 1e3 }
	return []metric{
		{"serve.handler_us_per_line", us(top), "us"},
		{"serve.self_us_per_line", us(parts[0]), "us"},
		{"stream.submit_us_per_line", us(t.Submit), "us"},
		{"stream.self_us_per_line", us(parts[2]), "us"},
		{"stream.dedup_frac", ratio(t.Events-t.ScoredInputs, t.Events), "frac"},
		{"stream.active_sessions", float64(t.ActiveSessions), "count"},
		{"stream.session_bytes", sessBytes, "B"},
		{"tuning.cascade_self_us_per_line", us(parts[3]), "us"},
		{"tuning.triage_us_per_line", us(t.Triage), "us"},
		{"tuning.confirm_us_per_line", us(t.Confirm), "us"},
		{"tuning.clear_frac", ratio(t.Cleared, scored), "frac"},
		{"tuning.escalate_frac", ratio(t.Escalated, scored), "frac"},
		{"tuning.cache_hit_frac", ratio(t.CacheHits, t.CacheHits+t.CacheMisses), "frac"},
		{"tuning.encoded_hit_frac", ratio(t.EncodedHits, t.EncodedHits+t.EncodedMisses), "frac"},
		{"bpe.encode_us_per_line", t.EncodeUSPerLine, "us"},
		{"fleet.route_us_per_line", us(t.Route), "us"},
		{"fleet.replica_us_per_line", us(t.Replica), "us"},
		{"fleet.self_us_per_line", us(parts[1]), "us"},
		{"fleet.max_replica_share", ratio(maxEv, allEv), "frac"},
		{"fleet.retries", float64(t.Retries), "count"},
		{"fleet.failovers", float64(t.Failovers), "count"},
		{"core.bundle_load_ms", ms(t.BundleLoad), "ms"},
		{"core.cascade_build_ms", ms(t.CascadeBuild), "ms"},
		{"core.replicate_ms", ms(t.ReplicateTime), "ms"},
		{"gen.us_per_line", us(t.Gen), "us"},
		{"trace.overhead_frac", overhead, "frac"},
		{"trace.layer_sum_frac", ratio(int64(clamped), int64(top)), "frac"},
	}
}
