package main

import (
	"hash/fnv"
	"math/rand/v2"
)

// deriveSeed maps the benchmark seed and a label naming one input (a
// sweep member, a client's pool slot) to a scenario seed in [1, 2^31).
// The same (seed, label) always yields the same value, and labels are
// independent of each other, so adding a member never shifts the seeds
// of the others.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer: spreads nearby benchmark seeds apart.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x%(1<<31-1)) + 1
}

// newRand returns the deterministic generator behind one client's
// choices.
func newRand(seed int64, label string) *rand.Rand {
	s := uint64(deriveSeed(seed, label))
	return rand.New(rand.NewPCG(s, s^0x5851f42d4c957f2d))
}
