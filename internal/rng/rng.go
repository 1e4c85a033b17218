// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distributions used across the mecache experiments.
//
// Every experiment in the paper's evaluation section is driven by random
// parameters (topologies, demands, prices). To keep every figure exactly
// reproducible, all randomness flows through this package rather than
// math/rand's global state: a Source is seeded explicitly and can be Split
// into independent child streams, so adding randomness to one module never
// perturbs another module's draws.
package rng

import "math"

// Source is a deterministic random source based on SplitMix64 for stream
// derivation and xoshiro256** for generation. The zero value is not valid;
// use New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams with overwhelming probability.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitMix64(sm)
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if src.s[0] == 0 && src.s[1] == 0 && src.s[2] == 0 && src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// splitMix64 advances a SplitMix64 state and returns the new state and output.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Split derives an independent child stream. The parent stream is advanced,
// so repeated Splits yield distinct children.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Substream returns the independent child stream for task `index` of the
// run seeded by `seed`. Unlike Split, derivation reads no mutable state:
// the stream is a pure function of (seed, index), so parallel workers can
// derive their streams without coordination and task i draws the same
// numbers no matter how many workers run, in which order tasks are
// claimed, or whether the run is serial. This is the seeding discipline
// behind the deterministic worker pool in internal/parallel.
func Substream(seed, index uint64) *Source {
	// Two SplitMix64 rounds fold the pair into one well-mixed seed; the
	// intermediate hash keeps Substream(seed, 0) distinct from New(seed).
	_, h := splitMix64(seed)
	_, h = splitMix64(h ^ index)
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is always a programming error.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// FloatRange returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Source) FloatRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: FloatRange called with hi < lo")
	}
	return lo + r.Float64()*(hi-lo)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	// 1 - Float64() is in (0, 1], keeping the log finite.
	return -math.Log(1-r.Float64()) / rate
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place using Fisher-Yates.
func (r *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choose returns k distinct uniform indices from [0, n) in random order.
// It panics if k > n or k < 0.
func (r *Source) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose called with k outside [0, n]")
	}
	return r.Perm(n)[:k]
}
