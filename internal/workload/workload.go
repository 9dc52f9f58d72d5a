// Package workload defines the transactional workloads of the evaluation: the
// transaction model (actions, synchronization points, transaction classes and
// their flow graphs), the paper's microbenchmarks, and the standard TATP and
// TPC-C benchmarks. Workloads generate transactions deterministically from a
// seeded random source, optionally varying over virtual time (for the
// adaptivity experiments) and skewing their key distribution.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

// OpType is the kind of storage access an action performs.
type OpType int

const (
	// Read fetches one row.
	Read OpType = iota
	// Update rewrites one row.
	Update
	// Insert adds one row.
	Insert
	// Delete removes one row.
	Delete
)

// String implements fmt.Stringer, using the paper's R/U/I/D shorthand.
func (o OpType) String() string {
	switch o {
	case Read:
		return "R"
	case Update:
		return "U"
	case Insert:
		return "I"
	case Delete:
		return "D"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// IsWrite reports whether the operation modifies data.
func (o OpType) IsWrite() bool { return o != Read }

// Action is one storage access of a generated transaction instance.
type Action struct {
	Table string
	Op    OpType
	Key   schema.Key
	// Row is the row to insert (Insert) or the new column values (Update);
	// nil updates are applied as an in-place increment by the engine.
	Row schema.Row
}

// SyncPoint is a rendezvous between actions of the same transaction: the
// listed actions must exchange Bytes bytes of intermediate data before the
// transaction can proceed (Section V-A).
type SyncPoint struct {
	Actions []int
	Bytes   int
}

// Transaction is one generated transaction instance.
//
// Transactions built through a GenContext are reused: the engine consumes the
// returned transaction fully before asking the same context for the next one,
// and the builder methods below recycle the Actions/SyncPoints backing arrays
// so steady-state generation performs no heap allocations.
type Transaction struct {
	Class      string
	Actions    []Action
	SyncPoints []SyncPoint
	ReadOnly   bool
	// MultiSite marks microbenchmark transactions that intentionally touch
	// rows owned by other shared-nothing instances.
	MultiSite bool

	// syncIdx is the shared backing array the SyncPoints' Actions slices
	// point into when the transaction is built with AddSync/AddSyncRange.
	syncIdx []int
}

// Reset clears the transaction for reuse under a new class, keeping the
// backing arrays of its slices.
func (t *Transaction) Reset(class string) {
	t.Class = class
	t.Actions = t.Actions[:0]
	t.SyncPoints = t.SyncPoints[:0]
	t.ReadOnly = false
	t.MultiSite = false
	t.syncIdx = t.syncIdx[:0]
}

// Add appends one action.
func (t *Transaction) Add(table string, op OpType, key schema.Key) {
	t.Actions = append(t.Actions, Action{Table: table, Op: op, Key: key})
}

// AddRow appends one action carrying a row payload (inserts, explicit updates).
func (t *Transaction) AddRow(table string, op OpType, key schema.Key, row schema.Row) {
	t.Actions = append(t.Actions, Action{Table: table, Op: op, Key: key, Row: row})
}

// AddSync appends a synchronization point between the given action indices.
// The indices are copied into the transaction's backing storage.
func (t *Transaction) AddSync(bytes int, actions ...int) {
	start := len(t.syncIdx)
	t.syncIdx = append(t.syncIdx, actions...)
	t.SyncPoints = append(t.SyncPoints, SyncPoint{Actions: t.syncIdx[start:len(t.syncIdx):len(t.syncIdx)], Bytes: bytes})
}

// AddSyncRange appends a synchronization point between actions [from, to).
func (t *Transaction) AddSyncRange(bytes, from, to int) {
	start := len(t.syncIdx)
	for i := from; i < to; i++ {
		t.syncIdx = append(t.syncIdx, i)
	}
	t.SyncPoints = append(t.SyncPoints, SyncPoint{Actions: t.syncIdx[start:len(t.syncIdx):len(t.syncIdx)], Bytes: bytes})
}

// Tables returns the distinct tables the transaction touches.
func (t *Transaction) Tables() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, a := range t.Actions {
		if _, ok := seen[a.Table]; ok {
			continue
		}
		seen[a.Table] = struct{}{}
		out = append(out, a.Table)
	}
	sort.Strings(out)
	return out
}

// FlowNode is one node of a transaction class's flow graph: an access to a
// table, possibly repeated (e.g. one OrderLine insert per ordered item).
type FlowNode struct {
	Table    string
	Op       OpType
	MinCount int
	MaxCount int
}

// FlowSync is a synchronization point of the flow graph, between the listed
// node indices.
type FlowSync struct {
	Nodes []int
	Bytes int
}

// FlowGraph is the static execution plan of a transaction class, as in the
// paper's Figure 7 for TPC-C NewOrder. ATraPos derives the static workload
// information of its cost model from these graphs.
type FlowGraph struct {
	Class string
	Nodes []FlowNode
	Syncs []FlowSync
}

// String renders the flow graph in a compact textual form.
func (g *FlowGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", g.Class)
	for i, n := range g.Nodes {
		if n.MinCount == n.MaxCount && n.MinCount == 1 {
			fmt.Fprintf(&b, "  [%d] %s(%s)\n", i, n.Op, n.Table)
		} else {
			fmt.Fprintf(&b, "  [%d] %s(%s) x(%d-%d)\n", i, n.Op, n.Table, n.MinCount, n.MaxCount)
		}
	}
	for i, s := range g.Syncs {
		fmt.Fprintf(&b, "  sync %d: nodes %v, %d bytes\n", i, s.Nodes, s.Bytes)
	}
	return b.String()
}

// TableDef describes one table of a workload: its schema, its population and
// the generator of its rows.
type TableDef struct {
	Schema *schema.Table
	Rows   int
	MaxKey int64
	// RowGen writes row i of the initial population, for i in [0, Rows),
	// through w, column by column, with keys strictly ascending in i. It must
	// be a pure function of i: the loader calls it from several goroutines at
	// once, each over its own range of rows and with its own writer, so it may
	// neither keep nor share mutable state.
	RowGen func(i int, w *schema.RowWriter)
}

// GenContext is the context available when generating one transaction. One
// context is owned by exactly one worker and reused across transactions: it
// carries the worker's reusable Transaction and the per-worker caches that
// make generation allocation-free in steady state.
type GenContext struct {
	// Rng is the caller's deterministic random source.
	Rng *rand.Rand
	// At is the current virtual time; time-varying workloads change their mix
	// and skew based on it.
	At vclock.Nanos
	// HomeSite and NumSites describe the shared-nothing instance of the
	// generating worker, for workloads that distinguish local from multi-site
	// transactions. Engines with a single instance pass 0 and 1.
	HomeSite int
	NumSites int

	txn  Transaction
	zipf zipfMemo
	site siteMemo
	// idx is scratch for generators that assemble irregular sync-point
	// member lists (e.g. TPC-C NewOrder) before copying them into the
	// transaction.
	idx []int
}

// Txn returns the context's reusable transaction, reset for the given class.
// The caller must fully consume the previously returned transaction first.
func (ctx *GenContext) Txn(class string) *Transaction {
	ctx.txn.Reset(class)
	return &ctx.txn
}

// classMix is a compiled weighted chooser over transaction classes.
type classMix struct {
	classes []string
	cum     []float64
	total   float64
}

// compileMix builds a classMix, ordering classes alphabetically exactly like
// pickWeighted, the tests' reference chooser, so seeded runs generate the same
// class sequence.
func compileMix(weights map[string]float64) *classMix {
	m := &classMix{}
	for k, w := range weights {
		if w > 0 {
			m.classes = append(m.classes, k)
		}
	}
	sort.Strings(m.classes)
	m.cum = make([]float64, len(m.classes))
	for i, k := range m.classes {
		m.total += weights[k]
		m.cum[i] = m.total
	}
	return m
}

func (m *classMix) pick(rng *rand.Rand) string {
	if m.total <= 0 || len(m.classes) == 0 {
		return ""
	}
	x := rng.Float64() * m.total
	for i, c := range m.cum {
		if x <= c {
			return m.classes[i]
		}
	}
	return m.classes[len(m.classes)-1]
}

// Workload couples a dataset with a transaction generator.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Tables lists the dataset.
	Tables []TableDef
	// Graphs holds the flow graph of every transaction class.
	Graphs map[string]*FlowGraph
	// Generate produces the next transaction.
	Generate func(ctx *GenContext) *Transaction
	// ClassWeights returns the probability of each class at virtual time at;
	// ATraPos uses it as the dynamic workload information of its cost model
	// and the harness prints it for reference. The map is the workload's own
	// (one per phase of a time-varying mix): callers read it and never write.
	ClassWeights func(at vclock.Nanos) map[string]float64
}

// TableSpecs converts the dataset description to the partition.TableSpec form
// used when building placements.
func (w *Workload) TableSpecs() []partition.TableSpec {
	out := make([]partition.TableSpec, len(w.Tables))
	for i, t := range w.Tables {
		out[i] = partition.TableSpec{Name: t.Schema.Name, MaxKey: t.MaxKey}
	}
	return out
}

// MaxKeys maps every table to its key-space bound, the form the monitor and
// the planner size their sub-partitions by.
func (w *Workload) MaxKeys() map[string]schema.Key {
	out := make(map[string]schema.Key, len(w.Tables))
	for _, t := range w.Tables {
		out[t.Schema.Name] = schema.KeyFromInt(t.MaxKey)
	}
	return out
}

// TableDef returns the definition of the named table.
func (w *Workload) TableDef(name string) (TableDef, bool) {
	for _, t := range w.Tables {
		if t.Schema.Name == name {
			return t, true
		}
	}
	return TableDef{}, false
}

// Graph returns the flow graph of a class.
func (w *Workload) Graph(class string) (*FlowGraph, bool) {
	g, ok := w.Graphs[class]
	return g, ok
}

// Skew describes a hot-set access skew: HotAccessFraction of the requests go
// to a HotDataFraction-sized window of the key space, starting at virtual
// time Start. A zero Skew means uniform access.
//
// Two optional time-varying behaviours drive the adaptivity scenarios:
// DriftPeriod slides the hot window across the key space (a continuously
// drifting hotspot), and OscillatePeriod toggles the skew on and off (a
// workload oscillating between skewed and uniform access).
type Skew struct {
	HotDataFraction   float64
	HotAccessFraction float64
	Start             vclock.Nanos
	// DriftPeriod, when positive, shifts the hot window forward by its own
	// width every period (wrapping around the key space), so the hot set
	// keeps moving and a placement tuned for the previous window goes stale.
	DriftPeriod vclock.Nanos
	// OscillatePeriod, when positive, alternates the skew between active and
	// inactive every period: skewed for one period, uniform for the next.
	OscillatePeriod vclock.Nanos
}

// Active reports whether the skew applies at virtual time at.
func (s Skew) Active(at vclock.Nanos) bool {
	if s.HotDataFraction <= 0 || s.HotAccessFraction <= 0 || at < s.Start {
		return false
	}
	if s.OscillatePeriod > 0 {
		return ((at-s.Start)/s.OscillatePeriod)%2 == 0
	}
	return true
}

// hotStart returns the lower end of the hot window at virtual time at.
func (s Skew) hotStart(hotKeys, maxKey int64, at vclock.Nanos) int64 {
	if s.DriftPeriod <= 0 || hotKeys <= 0 || hotKeys >= maxKey {
		return 0
	}
	windows := maxKey / hotKeys
	if windows < 1 {
		return 0
	}
	step := int64((at - s.Start) / s.DriftPeriod)
	return (step % windows) * hotKeys
}

// Pick selects a key in [0, maxKey) according to the skew at time at.
func (s Skew) Pick(rng *rand.Rand, maxKey int64, at vclock.Nanos) int64 {
	if maxKey <= 0 {
		return 0
	}
	if !s.Active(at) {
		return rng.Int63n(maxKey)
	}
	hotKeys := int64(float64(maxKey) * s.HotDataFraction)
	if hotKeys < 1 {
		hotKeys = 1
	}
	start := s.hotStart(hotKeys, maxKey, at)
	if start+hotKeys > maxKey {
		start = maxKey - hotKeys
	}
	if rng.Float64() < s.HotAccessFraction {
		return start + rng.Int63n(hotKeys)
	}
	cold := maxKey - hotKeys
	if cold < 1 {
		return rng.Int63n(maxKey)
	}
	v := rng.Int63n(cold)
	if v >= start {
		v += hotKeys
	}
	return v
}
