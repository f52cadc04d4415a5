package main

// Seeded, pre-generated traffic. Everything here runs before set-up: the
// corpus is synthesized, filtered into the workload's event stream, split
// into one fixed user partition per connection (so per-user order holds),
// and encoded into NDJSON request bodies. Nothing is encoded on the timed
// path; the one thing done there is rewriting the fixed-width timestamps of
// a replayed body in place.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"clmids/internal/corpus"
)

// workload is one traffic mix.
type workload struct {
	name string
	// routed sends the traffic through the fleet router over two
	// one-shard replicas instead of to one node.
	routed bool
	// reqLines is the events per /score request, sized so a run makes
	// enough requests for p99 to have ten samples beyond it.
	reqLines int
	// novel keeps only first sightings of each line; otherwise the
	// workload keeps the hotLines most frequent lines and replays them.
	novel bool
}

var workloads = map[string]workload{
	"hot":    {name: "hot", reqLines: 256},
	"novel":  {name: "novel", reqLines: 64, novel: true},
	"routed": {name: "routed", routed: true, reqLines: 128},
}

const (
	users        = 10000
	corpusLines  = 100000 // lines per generated corpus
	hotLines     = 3000   // distinct lines the hot working set keeps
	novelRate    = 25000  // novel first sightings per second of run and warm-up
	timeDigits   = 10     // fixed width of every encoded timestamp
	samplePerReq = 16     // one sampled request in this many on average
)

// event is one command line as sent.
type event struct {
	user, line string
	time       int64
}

// request is one pre-encoded /score body. Event k occupies
// body[off[k]:off[k+1]], `{"user":…,"time":…,"line":…}` and a newline; its
// verdict must start with that object minus the closing brace.
type request struct {
	body  []byte
	off   []int32 // len n+1
	tpos  []int32 // offset of each event's timestamp digits
	first int     // index of the first event in the connection's events
	// sample is the event (offset from first) whose line score is checked
	// against a direct Score of its line, or -1.
	sample int
	// shift is what the body's timestamps are currently shifted by.
	shift int64
}

// connTraffic is one connection's share of the traffic.
type connTraffic struct {
	events []event
	reqs   []request
	// replay loops over reqs, shifting every timestamp by span per loop so
	// each user's event time keeps increasing; otherwise reqs are sent once.
	replay bool
	span   int64
}

// genCorpus synthesizes the workload's raw event stream from seed. The
// novel stream is drawn from as many corpus chunks as it takes to hold
// novelRate first sightings per second of run; each chunk has its own seed
// and is shifted in time past the previous one, so every user's events keep
// increasing in time.
func genCorpus(w workload, seed int64, seconds int) ([]event, error) {
	if !w.novel {
		evs, _, err := corpusChunk(seed, 0)
		if err != nil {
			return nil, err
		}
		return mostFrequent(evs, hotLines), nil
	}
	need := novelRate * (seconds + int(warmup/time.Second))
	seeds := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []event
	var offset int64
	for len(out) < need {
		evs, span, err := corpusChunk(seeds.Int63(), offset)
		if err != nil {
			return nil, err
		}
		offset += span
		for _, ev := range evs {
			if k := normalize(ev.line); !seen[k] {
				seen[k] = true
				out = append(out, ev)
			}
		}
	}
	return out[:need], nil
}

// corpusChunk generates one corpusLines-line corpus with the given seed,
// its timestamps shifted by offset, and returns it with its time span.
func corpusChunk(seed, offset int64) ([]event, int64, error) {
	cfg := corpus.DefaultConfig()
	cfg.TrainLines, cfg.TestLines, cfg.Users, cfg.Seed = corpusLines, 1, users, seed
	train, _, err := corpus.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	evs := make([]event, len(train.Samples))
	lo, hi := train.Samples[0].Time, train.Samples[0].Time
	for i, s := range train.Samples {
		line := s.Line
		if !utf8.ValidString(line) {
			line = canonical(line)
		}
		evs[i] = event{user: s.User, line: line, time: s.Time + offset}
		lo, hi = min(lo, s.Time), max(hi, s.Time)
	}
	return evs, hi - lo + 1, nil
}

// canonical returns line as the server will echo it: a JSON round trip
// turns invalid UTF-8 into U+FFFD, which would otherwise make the echoed
// line differ from the sent bytes.
func canonical(line string) string {
	var out string
	_ = json.Unmarshal(jsonString(line), &out) // a marshalled string always unmarshals
	return out
}

// jsonString is s as a JSON string, escaped as the /score handler's
// encoder escapes it.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// normalize is the line identity the scoring caches key on: whitespace
// runs collapsed.
func normalize(line string) string { return strings.Join(strings.Fields(line), " ") }

// mostFrequent keeps the events whose line is among the n most frequent
// distinct lines (ties broken by the line itself).
func mostFrequent(evs []event, n int) []event {
	count := map[string]int{}
	for _, ev := range evs {
		count[normalize(ev.line)]++
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] > count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	keep := make(map[string]bool, len(keys))
	for _, k := range keys {
		keep[k] = true
	}
	out := evs[:0]
	for _, ev := range evs {
		if keep[normalize(ev.line)] {
			out = append(out, ev)
		}
	}
	return out
}

// partition splits evs over nconn connections by a hash of the user, so one
// connection carries all of a user's events, in order.
func partition(evs []event, nconn int) [][]event {
	parts := make([][]event, nconn)
	for _, ev := range evs {
		h := fnv.New32a()
		h.Write([]byte(ev.user))
		i := int(h.Sum32() % uint32(nconn))
		parts[i] = append(parts[i], ev)
	}
	return parts
}

// buildTraffic generates, partitions and encodes a workload's traffic.
func buildTraffic(w workload, seed int64, seconds, nconn int) ([]*connTraffic, error) {
	evs, err := genCorpus(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("workload %s generated no events", w.name)
	}
	lo, hi := evs[0].time, evs[0].time
	for _, ev := range evs {
		lo, hi = min(lo, ev.time), max(hi, ev.time)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*connTraffic, nconn)
	for c, part := range partition(evs, nconn) {
		ct := &connTraffic{events: part, replay: !w.novel, span: hi - lo + 1}
		for first := 0; first < len(part); first += w.reqLines {
			req, err := encode(part, first, min(first+w.reqLines, len(part)))
			if err != nil {
				return nil, err
			}
			if rng.Intn(samplePerReq) == 0 {
				req.sample = rng.Intn(len(req.off) - 1)
			}
			ct.reqs = append(ct.reqs, req)
		}
		if len(ct.reqs) == 0 {
			return nil, fmt.Errorf("connection %d of %d got no traffic", c, nconn)
		}
		out[c] = ct
	}
	return out, nil
}

// encode builds the NDJSON body of events [first, end).
func encode(evs []event, first, end int) (request, error) {
	r := request{first: first, sample: -1}
	for _, ev := range evs[first:end] {
		r.off = append(r.off, int32(len(r.body)))
		r.body = append(r.body, `{"user":`...)
		r.body = append(r.body, jsonString(ev.user)...)
		r.body = append(r.body, `,"time":`...)
		r.tpos = append(r.tpos, int32(len(r.body)))
		r.body = append(r.body, make([]byte, timeDigits)...)
		if err := putTime(r.body[len(r.body)-timeDigits:], ev.time); err != nil {
			return r, err
		}
		r.body = append(r.body, `,"line":`...)
		r.body = append(r.body, jsonString(ev.line)...)
		r.body = append(r.body, "}\n"...)
	}
	r.off = append(r.off, int32(len(r.body)))
	return r, nil
}

// putTime writes t into dst as exactly timeDigits decimal digits.
func putTime(dst []byte, t int64) error {
	if t < 1e9 || t >= 1e10 {
		return fmt.Errorf("timestamp %d is not %d digits", t, timeDigits)
	}
	var tmp [timeDigits]byte
	copy(dst, strconv.AppendInt(tmp[:0], t, 10))
	return nil
}

// shiftTimes rewrites every timestamp of r to its event's time plus shift.
func (ct *connTraffic) shiftTimes(r *request, shift int64) error {
	for k, p := range r.tpos {
		if err := putTime(r.body[p:p+timeDigits], ct.events[r.first+k].time+shift); err != nil {
			return err
		}
	}
	return nil
}
