// Package backend holds the executed storage engine. The reproduction's
// default storage path is *priced*: the engine runs operations against real
// B-trees (package storage, called directly) but their cost is virtual,
// charged to per-core clocks by the NUMA cost model. This package is the
// *executed* alternative, selected by engine.Config.Backend = Hash: a real
// sharded hash engine (HashBackend) whose operations cost whatever the
// host actually spends, measured in wall nanoseconds — the executed twin the
// cost model's crossover direction is compared against (fig-executed).
//
// A shard is single-owner: at most one goroutine operates on it at a time (the
// executed engine runs one executor goroutine per island and ships
// cross-island operations to the owner); the backend itself adds no locking.
package backend

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
