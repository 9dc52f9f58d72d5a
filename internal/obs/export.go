package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Chrome trace-event export. The format is the Trace Event JSON object form
// ({"traceEvents":[...]}) that Perfetto and chrome://tracing load directly.
// Virtual nanoseconds map to trace microseconds (ts = ns / 1000, three
// decimals, so single-nanosecond spans stay distinct). Track layout: one
// process per subsystem — pid 0 "cores" with one thread per core, pid 1
// "islands" (WAL activity), pid 2 "devices", pid 3 "planner" — because a
// per-process grouping is what Perfetto renders as separate track groups.
// A span's track follows from its Kind (trackOf); only tracks that hold an
// event are named.
//
// Events are emitted in a fixed order (metadata, then spans sorted by track,
// start, core, kind and arg, then decisions) and every struct below has fixed
// fields, so the exported bytes are a pure function of the recorded spans:
// bit-identical across runs, hosts and harness parallelism.

const (
	pidCores   = 0
	pidIslands = 1
	pidDevices = 2
	pidPlanner = 3
)

// track is one Perfetto track: a (process, thread) pair.
type track struct{ pid, tid int }

// trackOf places a span: planner kinds on the planner track, WAL activity on
// its island's, queue waits on their device's, and everything else on the
// core that did the work.
func trackOf(sp Span) track {
	switch sp.Kind {
	case KindPlannerSeal, KindPlannerScore, KindPlannerMigrate:
		return track{pidPlanner, 0}
	case KindPhysFlush, KindCoalesceFold:
		return track{pidIslands, int(sp.Site)}
	case KindDeviceWait:
		return track{pidDevices, int(sp.Site)}
	default:
		return track{pidCores, int(sp.Core)}
	}
}

// trackNames are the process names by pid and each process's thread-name
// format.
var trackNames = [...]struct{ process, thread string }{
	pidCores:   {"cores", "core %d"},
	pidIslands: {"islands", "island %d"},
	pidDevices: {"devices", "device %d"},
	pidPlanner: {"planner", "granularity planner"},
}

// completeEvent is a ph:"X" duration event.
type completeEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   jsonMicro `json:"ts"`
	Dur  jsonMicro `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args spanArgs  `json:"args"`
}

// instantEvent is a ph:"i" instant event (zero-duration spans, decisions).
type instantEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   jsonMicro `json:"ts"`
	S    string    `json:"s"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args any       `json:"args"`
}

// metaEvent is a ph:"M" metadata event naming a process or thread.
type metaEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Args metaArgs `json:"args"`
}

type metaArgs struct {
	Name string `json:"name"`
}

type spanArgs struct {
	Class string `json:"class,omitempty"`
	Core  int32  `json:"core"`
	Site  int32  `json:"site"`
	Epoch uint32 `json:"epoch"`
	Arg   int64  `json:"arg"`
}

type decisionArgs struct {
	Current    string       `json:"current"`
	Best       string       `json:"best"`
	Verdict    string       `json:"verdict"`
	Multisite  float64      `json:"multisite_share"`
	Candidates []LevelScore `json:"candidates"`
}

// jsonMicro formats virtual nanoseconds as trace microseconds with exactly
// three decimals, so the byte representation is independent of float
// shortest-form printing.
type jsonMicro int64

func (m jsonMicro) MarshalJSON() ([]byte, error) {
	n := int64(m)
	if n < 0 { // virtual time never goes negative; stay well-defined anyway
		n = 0
	}
	return []byte(fmt.Sprintf("%d.%03d", n/1000, n%1000)), nil
}

// ExportChromeTrace renders the tracer's ring and decision log as a Chrome
// trace-event JSON document. A nil tracer exports an empty (but valid) trace.
func (t *Tracer) ExportChromeTrace() []byte {
	spans := t.Ring().Snapshot()
	// Ring order is deterministic (one producer), and the stable sort keeps
	// it among spans that tie on every key.
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if ta, tb := trackOf(a), trackOf(b); ta != tb {
			if ta.pid != tb.pid {
				return ta.pid < tb.pid
			}
			return ta.tid < tb.tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Arg < b.Arg
	})
	decisions := t.Decisions()

	// Name each occupied track, and its process before its first thread.
	var used []track
	for _, sp := range spans {
		if tk, n := trackOf(sp), len(used); n == 0 || used[n-1] != tk {
			used = append(used, tk)
		}
	}
	if len(decisions) > 0 && (len(used) == 0 || used[len(used)-1].pid != pidPlanner) {
		used = append(used, track{pidPlanner, 0})
	}
	var events []any
	for i, tk := range used {
		names := trackNames[tk.pid]
		if i == 0 || used[i-1].pid != tk.pid {
			events = append(events, metaEvent{Name: "process_name", Ph: "M", Pid: tk.pid,
				Args: metaArgs{Name: names.process}})
		}
		thread := names.thread
		if tk.pid != pidPlanner {
			thread = fmt.Sprintf(thread, tk.tid)
		}
		events = append(events, metaEvent{Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
			Args: metaArgs{Name: thread}})
	}

	for _, sp := range spans {
		tk := trackOf(sp)
		args := spanArgs{Class: sp.Class, Core: sp.Core, Site: sp.Site, Epoch: sp.Epoch, Arg: sp.Arg}
		if sp.Dur > 0 {
			events = append(events, completeEvent{Name: sp.Kind.String(), Ph: "X",
				Ts: jsonMicro(sp.Start), Dur: jsonMicro(sp.Dur), Pid: tk.pid, Tid: tk.tid, Args: args})
		} else {
			events = append(events, instantEvent{Name: sp.Kind.String(), Ph: "i", S: "t",
				Ts: jsonMicro(sp.Start), Pid: tk.pid, Tid: tk.tid, Args: args})
		}
	}

	for _, d := range decisions {
		events = append(events, instantEvent{Name: "planner-decision", Ph: "i", S: "p",
			Ts: jsonMicro(d.At), Pid: pidPlanner, Tid: 0,
			Args: decisionArgs{Current: d.Current, Best: d.Best, Verdict: d.Verdict,
				Multisite: d.Multisite, Candidates: d.Candidates}})
	}

	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[")
	for i, ev := range events {
		if i > 0 {
			buf.WriteByte(',')
		}
		b, err := json.Marshal(ev)
		if err != nil {
			// Fixed-field structs of primitives cannot fail to marshal.
			panic(fmt.Sprintf("obs: marshal trace event: %v", err))
		}
		buf.Write(b)
	}
	buf.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return buf.Bytes()
}

// MetricsCSVHeader is the first line of the metrics CSV.
const MetricsCSVHeader = "at_ns,epoch,level,tps,committed,aborted,multisite_share,coalesce_ratio,device_backlog_ns,busy_min_ns,busy_mean_ns,busy_max_ns,island_tps"

// ExportMetricsCSV renders the planner-boundary metrics series as CSV, one
// row per sample. IslandTPS is ';'-joined inside the last column. Floats are
// printed with %.6f so the bytes are deterministic.
func (t *Tracer) ExportMetricsCSV() []byte {
	var buf bytes.Buffer
	buf.WriteString(MetricsCSVHeader)
	buf.WriteByte('\n')
	for _, s := range t.Samples() {
		island := make([]string, len(s.IslandTPS))
		for i, v := range s.IslandTPS {
			island[i] = strconv.FormatFloat(v, 'f', 6, 64)
		}
		fmt.Fprintf(&buf, "%d,%d,%s,%.6f,%d,%d,%.6f,%.6f,%.6f,%d,%d,%d,%s\n",
			int64(s.At), s.Epoch, s.Level, s.TPS, s.Committed, s.Aborted,
			s.MultisiteShare, s.CoalesceRatio, s.DeviceBacklogNs,
			int64(s.Clocks.Min), int64(s.Clocks.Mean), int64(s.Clocks.Max),
			strings.Join(island, ";"))
	}
	return buf.Bytes()
}

// ValidateChromeTrace checks data against the trace-event contract the
// exporter promises: a traceEvents array whose entries all carry a name, a
// known phase, and — for duration and instant events — a non-negative
// timestamp (plus a non-negative duration for ph:"X"). It is the shared
// schema check behind `make bench-trace` and the exporter tests.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == nil || *ev.Name == "" {
			return fmt.Errorf("obs: trace event %d has no name", i)
		}
		if ev.Ph == nil {
			return fmt.Errorf("obs: trace event %d (%s) has no phase", i, *ev.Name)
		}
		switch *ev.Ph {
		case "M":
			// Metadata events carry no timestamp.
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("obs: trace event %d (%s) has a missing or negative ts", i, *ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("obs: trace event %d (%s) has a missing or negative dur", i, *ev.Name)
			}
		case "i":
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("obs: trace event %d (%s) has a missing or negative ts", i, *ev.Name)
			}
		default:
			return fmt.Errorf("obs: trace event %d (%s) has unknown phase %q", i, *ev.Name, *ev.Ph)
		}
		if ev.Pid == nil || ev.Tid == nil {
			return fmt.Errorf("obs: trace event %d (%s) is missing pid/tid", i, *ev.Name)
		}
	}
	return nil
}

// ValidateMetricsCSV checks the CSV header and that every row has the
// header's column count with a non-decreasing at_ns first column.
func ValidateMetricsCSV(data []byte) error {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != MetricsCSVHeader {
		return fmt.Errorf("obs: metrics CSV header mismatch")
	}
	wantCols := strings.Count(MetricsCSVHeader, ",") + 1
	var prev int64 = -1
	for i, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != wantCols {
			return fmt.Errorf("obs: metrics CSV row %d has %d columns, want %d", i+1, len(cols), wantCols)
		}
		at, err := strconv.ParseInt(cols[0], 10, 64)
		if err != nil {
			return fmt.Errorf("obs: metrics CSV row %d at_ns: %w", i+1, err)
		}
		if at < prev {
			return fmt.Errorf("obs: metrics CSV row %d at_ns went backwards (%d < %d)", i+1, at, prev)
		}
		prev = at
	}
	return nil
}
