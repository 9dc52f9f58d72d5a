package workload

import "atrapos/internal/schema"

// YCSBMix names one of the YCSB core mixes reproduced here: single-row
// operations over a skewed key distribution, with the read share the only
// knob that differs between mixes.
type YCSBMix int

const (
	// YCSBA is the update-heavy mix: 50% reads, 50% updates.
	YCSBA YCSBMix = iota
	// YCSBB is the read-mostly mix: 95% reads, 5% updates.
	YCSBB
	// YCSBC is the read-only mix: 100% reads.
	YCSBC
)

// readPct is the mix's read share in percent; unknown values fall back to
// the update-heavy A mix, the most demanding of the three.
func (m YCSBMix) readPct() int {
	switch m {
	case YCSBB:
		return 95
	case YCSBC:
		return 100
	default:
		return 50
	}
}

func (m YCSBMix) String() string {
	switch m {
	case YCSBB:
		return "ycsb-b"
	case YCSBC:
		return "ycsb-c"
	default:
		return "ycsb-a"
	}
}

// YCSB builds the named YCSB core mix over a rows-sized ten-column table:
// every transaction is one read or one update of a single row, with keys
// drawn Zipf-skewed from the generating worker's own site-local range
// (siteKeyRange), so the workload is perfectly partitionable at any island
// granularity — the contrast to the multisite microbenchmarks. The skew makes
// a small hot set per site absorb most traffic, which is what stresses the
// executed backend's single-owner shards and the coalescing value log.
func YCSB(rows int, mix YCSBMix) *Workload {
	const (
		readClass   = "YCSBRead"
		updateClass = "YCSBUpdate"
		table       = "ycsb"
	)
	readPct := mix.readPct()
	w := microWorkload(mix.String(), table, rows,
		map[string]float64{readClass: float64(readPct), updateClass: float64(100 - readPct)},
		accesses(readClass, table, Read, 1), accesses(updateClass, table, Update, 1))
	w.Generate = func(ctx *GenContext) *Transaction {
		lo, hi := ctx.siteKeyRange(int64(rows))
		key := schema.KeyFromInt(lo + ctx.zipfKey(hi-lo))
		if ctx.Rng.Intn(100) < readPct {
			t := ctx.Txn(readClass)
			t.ReadOnly = true
			t.Add(table, Read, key)
			return t
		}
		t := ctx.Txn(updateClass)
		t.Add(table, Update, key)
		return t
	}
	return w
}
