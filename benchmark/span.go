package main

import (
	"encoding/json"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded from the
// benchmark's own files, around calls into each layer's public functions; a
// layer span covers thousands of calls so the clock reads (66 ns each on the
// reference host, comparable to a hash probe) stay out of the per-call number.
type span struct {
	Name    string
	StartNS int64
	EndNS   int64
	// ID is the span's index+1 in its recorder; Parent is the ID of the span
	// that caused it (0 for a root).
	ID, Parent int
	// Trace names the request the span belongs to: workload/block.
	Trace string
	// Calls is how many layer calls the interval covers.
	Calls int64
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in a pre-sized slice; nothing is written out before
// all timing has ended.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// begin opens a span and returns its ID; the clock is read last so the
// bookkeeping is outside the interval.
func (r *recorder) begin(name string, parent int, trace string) int {
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Trace: trace})
	r.spans[len(r.spans)-1].StartNS = r.now()
	return len(r.spans)
}

// end closes span id; the clock is read first.
func (r *recorder) end(id int, calls int64) {
	t := r.now()
	r.spans[id-1].EndNS = t
	r.spans[id-1].Calls = calls
}

// add records an interval measured elsewhere (a phase accumulated over many
// short stretches) as a child laid out from start; it returns the end so
// consecutive phases can be laid side by side.
func (r *recorder) add(name string, parent int, trace string, start, durNS, calls int64) int64 {
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Trace: trace,
		StartNS: start, EndNS: start + durNS, Calls: calls})
	return start + durNS
}

// selfNS is a span's self time: its duration minus the part of its interval
// its child spans cover (overlapping children are counted once).
func selfNS(spans []span, id int) int64 {
	parent := spans[id-1]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartNS, parent.StartNS), min(s.EndNS, parent.EndNS)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, edge := int64(0), parent.StartNS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return parent.dur() - covered
}

// perCall returns, for every span of the given name, its duration per call.
func perCall(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Calls > 0 {
			out = append(out, float64(s.dur())/float64(s.Calls))
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"), the format
// Perfetto and chrome://tracing load. Times are microseconds.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Calls  int64  `json:"calls"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// chromeTrace renders spans as trace-event JSON. Roots go on thread 1 and
// every deeper level on the next thread, so a parent is drawn above its
// children.
func chromeTrace(spans []span) ([]byte, error) {
	depth := make([]int, len(spans)+1)
	f := traceFile{TraceEvents: make([]traceEvent, 0, len(spans)), DisplayTimeUnit: "ns"}
	for _, s := range spans {
		if s.Parent > 0 {
			depth[s.ID] = depth[s.Parent] + 1
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: depth[s.ID] + 1,
			Args: traceArgs{ID: s.ID, Parent: s.Parent, Trace: s.Trace, Calls: s.Calls},
		})
	}
	return json.Marshal(f)
}
