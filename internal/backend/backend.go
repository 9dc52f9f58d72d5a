// Package backend defines the pluggable storage engine behind the engine's
// executors. The reproduction's default storage path is *priced*: operations
// run against real B-trees but their cost is virtual, charged to per-core
// clocks by the NUMA cost model. This package adds the *executed* alternative:
// a real sharded hash engine (HashBackend) whose operations cost whatever the
// host actually spends, measured in wall nanoseconds — the executed twin the
// cost model's crossover direction is compared against (fig-executed).
//
// Both engines expose the same shard-handle interface: one shard per hardware
// island, addressed by island index, so the engine's site routing (placement →
// core → island) maps onto either backend unchanged.
package backend

import (
	"atrapos/internal/schema"
)

// Kind names a storage backend in engine configuration.
type Kind string

const (
	// Priced is the default virtual-cost path: storage operations run on the
	// engine's B-trees and charge modeled costs to virtual clocks.
	Priced Kind = ""
	// Hash selects the executed Bitcask-style sharded hash engine: real
	// operations, real wall time, one shard per island.
	Hash Kind = "hash"
)

// Backend is a sharded key-value storage engine. Shards are addressed by
// index; tables by their registration index (the engine registers the
// workload's tables in TableSpecs order, so table i means the same relation in
// every backend). Ops carry the acting transaction id so the durability layer
// can stage writes per transaction (group commit, coalescing).
//
// A shard is single-owner: the caller must ensure that at most one goroutine
// operates on a given shard at a time (the executed engine runs one executor
// goroutine per island and ships cross-island operations to the owner). The
// interface itself adds no locking.
type Backend interface {
	// Shards returns the number of shard handles.
	Shards() int
	// Get returns the value stored under key in the shard's table, if any.
	Get(shard, table int, key schema.Key) (uint64, bool)
	// Put stores val under key on behalf of txn, inserting or overwriting.
	Put(shard, table int, key schema.Key, txn, val uint64)
	// Delete removes key on behalf of txn and reports whether it was present.
	Delete(shard, table int, key schema.Key, txn uint64) bool
	// Scan visits the shard's live keys of one table in unspecified order
	// until fn returns false; it returns the number of keys visited.
	Scan(shard, table int, fn func(schema.Key, uint64) bool) int
}

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix64 is the splitmix64 finalizer, the hash both the shard router and the
// open-addressing indexes probe with.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
