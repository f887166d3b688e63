package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read off fewer samples is noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rank returns the 1-based nearest rank of percentile p over n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs; xs need not be
// sorted. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a percentile read together with the evidence behind it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// highestTail returns the highest ladder percentile that has at least
// minBeyond samples beyond it. ok is false when even the median lacks
// them.
func highestTail(xs []float64) (t tail, ok bool) {
	for _, p := range tailLadder {
		pt, enough := percentileWithBeyond(xs, p)
		if !enough {
			break
		}
		t, ok = pt, true
	}
	return t, ok
}

// percentileWithBeyond returns percentile p of xs only when at least
// minBeyond samples lie beyond it.
func percentileWithBeyond(xs []float64, p float64) (tail, bool) {
	n := len(xs)
	if n == 0 {
		return tail{}, false
	}
	r := rank(p, n)
	if n-r < minBeyond {
		return tail{}, false
	}
	return tail{Percentile: p, Value: sorted(xs)[r-1], Samples: n, Beyond: n - r}, true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root); spans of one monitoring cycle share
// Cycle. Start and End are offsets from the tracer's origin.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Cycle  int           `json:"cycle"`
	Target string        `json:"target,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory; they are written out when the run ends.
// A nil *Tracer records nothing, so untraced runs pay one nil check per
// call site.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent, cycle int, target string) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Cycle: cycle, Target: target, Start: start, End: -1})
	return id
}

// End closes the span with the given ID.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children that overlap one another (calls
// running concurrently) are counted once, as the union of their
// intervals clipped to the parent's.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// openLoop issues requests on a fixed schedule, independent of how long
// each takes: request i is due at start + i*interval. Latency is
// measured from the due time, so a stall also counts against every
// request that queued behind it; lateness is how far the generator ran
// behind schedule when it issued a request.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// record returns the latency of request i, which was issued at sent and
// completed at done, and how late it was issued.
func (o openLoop) record(i int, sent, done time.Time) (latency, late time.Duration) {
	due := o.due(i)
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}
