package workload

import (
	"math"

	"atrapos/internal/schema"
)

// ZipfHotkey is the group-commit signature workload: updates follow a
// Zipf-like skew so a small hot set absorbs most writes, hot transactions
// re-write the same row twice (overwriting pairs), and a churn class issues
// self-canceling Delete+Insert pairs on one key. All of that is exactly the
// write shape a coalescing WAL accumulator collapses — many logical records,
// few surviving net deltas — while a plain log pays for every record.
//
// rows sizes the table, pctMultiSite (0..100) is the share of non-churn
// transactions that touch remote instances, and churnPct (0..100) is the
// share of all transactions that are churn pairs. Local keys stay inside the
// generating worker's own instance range (siteKeyRange), so churn and hot
// traffic never pay 2PC.
func ZipfHotkey(rows, pctMultiSite, churnPct int) *Workload {
	const (
		hotClass   = "ZipfHotUpdate"
		multiClass = "ZipfMultiUpdate"
		churnClass = "ZipfChurnPair"
		table      = "mzipf"
	)
	pctMultiSite = percent(pctMultiSite)
	churnPct = percent(churnPct)
	churn := float64(churnPct)
	rest := 100 - churn
	w := microWorkload("zipf-hotkey", table, rows,
		map[string]float64{
			churnClass: churn,
			multiClass: rest * float64(pctMultiSite) / 100,
			hotClass:   rest * float64(100-pctMultiSite) / 100,
		},
		accesses(hotClass, table, Update, 10),
		accesses(multiClass, table, Update, 10, FlowSync{Nodes: []int{0}, Bytes: 88}),
		&FlowGraph{Class: churnClass, Nodes: []FlowNode{
			{Table: table, Op: Delete, MinCount: 2, MaxCount: 2},
			{Table: table, Op: Insert, MinCount: 2, MaxCount: 2},
		}})
	w.Generate = func(ctx *GenContext) *Transaction {
		lo, hi := ctx.siteKeyRange(int64(rows))
		localKey := func() schema.Key {
			return schema.KeyFromInt(lo + ctx.zipfKey(hi-lo))
		}
		if ctx.Rng.Intn(100) < churnPct {
			// Two self-canceling pairs: Delete then Insert on the same
			// existing row leaves the key present either way, so the pair
			// nets to one Insert under coalescing and two records without.
			t := ctx.Txn(churnClass)
			for i := 0; i < 2; i++ {
				key := localKey()
				t.Add(table, Delete, key)
				t.Add(table, Insert, key)
			}
			return t
		}
		if ctx.Rng.Intn(100) < pctMultiSite {
			t := ctx.Txn(multiClass)
			t.MultiSite = true
			t.Add(table, Update, localKey())
			for i := 0; i < 9; i++ {
				t.Add(table, Update, schema.KeyFromInt(ctx.zipfKey(int64(rows))))
			}
			t.AddSyncRange(88, 0, len(t.Actions))
			return t
		}
		// Ten updates over five Zipf keys, each written twice: half the
		// writes overwrite the transaction's own earlier write.
		t := ctx.Txn(hotClass)
		for i := 0; i < 5; i++ {
			key := localKey()
			t.Add(table, Update, key)
			t.Add(table, Update, key)
		}
		return t
	}
	return w
}

// zipfKey draws a Zipf-like skewed key in [0, span): the result is
// floor(span^u)-1 for uniform u, which concentrates mass near zero (roughly
// half of all draws land in the first sqrt(span) keys) while still covering
// the whole range. It needs no precomputed tables and is deterministic per
// seed. What span^u derives from the span alone is cached in the context's
// zipfMemo, so a draw costs one Exp, not a Pow; the keys are bit-identical
// to int64(math.Pow(float64(span), u))-1 (see zipfSpan.pow).
func (ctx *GenContext) zipfKey(span int64) int64 {
	if span <= 1 {
		return 0
	}
	return ctx.zipf.lookup(span).key(ctx.Rng.Float64())
}

// zipfMemo caches the spans a generator draws from, most recently added
// first. Two entries hold what one executor's generator alternates between,
// its site's range and the whole table; a miss recomputes only Log and Sqrt.
type zipfMemo [2]zipfSpan

// lookup returns span's entry, computing it on a miss.
func (m *zipfMemo) lookup(span int64) *zipfSpan {
	if m[0].span == span {
		return &m[0]
	}
	if m[1].span != span {
		m[1] = m[0]
		m[0] = newZipfSpan(span)
		return &m[0]
	}
	return &m[1]
}

// zipfSpan holds what math.Pow(x, u) computes from x = span alone.
type zipfSpan struct {
	span         int64
	x, log, sqrt float64
}

func newZipfSpan(span int64) zipfSpan {
	x := float64(span)
	return zipfSpan{span: span, x: x, log: math.Log(x), sqrt: math.Sqrt(x)}
}

// key is zipfKey's body for one uniform u in [0, 1).
func (z *zipfSpan) key(u float64) int64 {
	k := int64(z.pow(u)) - 1
	if k < 0 {
		k = 0
	}
	if k >= z.span {
		k = z.span - 1
	}
	return k
}

// pow is math.Pow(z.x, u) for u in [0, 1), bit for bit. For x > 1 and such a
// u, the pure-Go math.Pow (every platform but s390x) returns 1 at u == 0,
// Sqrt(x) at u == 0.5, Exp(u*Log(x)) below 0.5 and, above it,
// Ldexp(Exp((u-1)*Log(x))*x1, xe) with x1, xe = Frexp(x). The branches below
// are those, with Log and Sqrt hoisted. The last one multiplies by x instead
// of by x1 and then by 2^xe, which rounds identically: outside the subnormal
// and overflow ranges scaling by a power of two is exact, and this product
// stays far from both.
func (z *zipfSpan) pow(u float64) float64 {
	switch {
	case u == 0:
		return 1
	case u == 0.5:
		return z.sqrt
	case u > 0.5:
		return math.Exp((u-1)*z.log) * z.x
	}
	return math.Exp(u * z.log)
}
