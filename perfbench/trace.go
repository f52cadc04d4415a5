package main

// The traced run's spans. Each wrapper times calls into one layer's public
// function from the benchmark's side of the call; nothing inside the
// program is instrumented. The wrappers forward every optional interface
// the stack probes (Replicate, CascadeStats, CacheStats, the precision
// switch), so /stats shows the same cascade and cache counters with tracing
// on as off.

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"clmids/internal/model"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// span accumulates the summed duration of every call into one layer.
type span struct{ ns atomic.Int64 }

func (s *span) add(since time.Time) { s.ns.Add(int64(time.Since(since))) }

// total returns the summed duration so far.
func (s *span) total() time.Duration { return time.Duration(s.ns.Load()) }

// spans are the traced layer boundaries of one stack.
type spans struct {
	handler, replica, route, submit span
	cascade, triage, confirm        span
}

// reset zeroes every span. Every warm-up request has been answered when
// the timed phase starts, but a handler adds its span only after its reply
// is out, so one warm-up request per connection may still count: a few in
// thousands.
func (s *spans) reset() {
	for _, sp := range []*span{&s.handler, &s.replica, &s.route, &s.submit, &s.cascade, &s.triage, &s.confirm} {
		sp.ns.Store(0)
	}
}

// timedScorer times Score on the scorer it wraps. Replicas share the span.
type timedScorer struct {
	inner tuning.Scorer
	sp    *span
}

func (t timedScorer) Score(lines []string) ([]float64, error) {
	defer t.sp.add(time.Now())
	return t.inner.Score(lines)
}

// Replicate replicates the wrapped scorer; the replica reports into the
// same span. Every scorer the stack wraps is replicable.
func (t timedScorer) Replicate() tuning.Scorer {
	return timedScorer{t.inner.(tuning.Replicable).Replicate(), t.sp}
}

// CascadeStats forwards the wrapped cascade's per-rung counters.
func (t timedScorer) CascadeStats() tuning.CascadeStats {
	if cs, ok := t.inner.(tuning.CascadeStatser); ok {
		return cs.CascadeStats()
	}
	return tuning.CascadeStats{}
}

// CacheStats forwards the wrapped scorer's cache counters.
func (t timedScorer) CacheStats() tuning.CacheStats {
	if cs, ok := t.inner.(tuning.CacheStatser); ok {
		return cs.CacheStats()
	}
	return tuning.CacheStats{}
}

// Precision forwards the wrapped scorer's serving rung.
func (t timedScorer) Precision() model.Precision {
	p, _ := tuning.ScorerPrecision(t.inner)
	return p
}

// AtPrecision wraps the wrapped scorer's variant at p into the same span.
func (t timedScorer) AtPrecision(p model.Precision) (tuning.Scorer, error) {
	s, err := tuning.AtPrecision(t.inner, p)
	if err != nil {
		return nil, err
	}
	return timedScorer{s, t.sp}, nil
}

// tracedCascade rebuilds what core.BuildCascade builds — rarity filter,
// int8 triage, f64 confirm — with each model rung and the cascade itself
// timed.
func tracedCascade(confirm tuning.Scorer, rarity *tuning.RarityTable, params tuning.CascadeParams, sp *spans) (tuning.Scorer, error) {
	triage, err := tuning.AtPrecision(confirm, model.PrecisionInt8)
	if err != nil {
		return nil, err
	}
	c, err := tuning.NewCascadeScorer(rarity, timedScorer{triage, &sp.triage}, timedScorer{confirm, &sp.confirm}, params)
	if err != nil {
		return nil, err
	}
	return timedScorer{c, &sp.cascade}, nil
}

// submitFunc is the shape serve.HandleScoreFunc drives.
type submitFunc = func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error)

// timedSubmit times every call of submit.
func timedSubmit(submit submitFunc, sp *span) submitFunc {
	return func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error) {
		defer sp.add(time.Now())
		return submit(ctx, events)
	}
}

// timedHandler times every request h serves into each of sps.
func timedHandler(h http.Handler, sps ...*span) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		for _, sp := range sps {
			sp.add(start)
		}
	})
}
