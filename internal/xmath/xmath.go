// Package xmath provides small numeric and pseudo-random utilities shared by
// the sampling and summarization packages: a fast seedable RNG (splitmix64 /
// xoshiro-style), Kahan summation, and tolerant float comparisons.
//
// All randomized algorithms in this repository draw from the Rand interface
// defined here so that experiments and tests are reproducible from a seed.
package xmath

import "math"

// Eps is the default absolute tolerance used when snapping probabilities to
// {0,1} and when comparing floating-point aggregates that are exact in real
// arithmetic but accumulate rounding error in float64.
const Eps = 1e-9

// Rand is the minimal source of randomness used across the repository.
// *SplitMix implements it, as does any adapter over math/rand.
type Rand interface {
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
	// Uint64 returns a uniform 64-bit value.
	Uint64() uint64
}

// SplitMix is a splitmix64 PRNG: tiny state, excellent statistical quality
// for the purposes here, and trivially seedable. It is not cryptographically
// secure, which is fine: samples are statistical summaries, not secrets.
type SplitMix struct {
	state uint64
}

// NewRand returns a deterministic PRNG seeded with seed.
func NewRand(seed uint64) *SplitMix {
	return &SplitMix{state: seed}
}

// Clone returns an independent generator with the same state: both produce
// the same future sequence, and advancing one does not affect the other.
// core.Builder.Snapshot closes the live reservoir with a clone, so the
// snapshot's draws leave the Builder's own random decisions unperturbed.
func (s *SplitMix) Clone() *SplitMix {
	return &SplitMix{state: s.state}
}

// Uint64 returns the next 64-bit output of the generator.
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (s *SplitMix) Intn(n int) int {
	if n <= 0 {
		panic("xmath: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a uniform random permutation of [0, n).
func (s *SplitMix) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Perm returns a uniform random permutation of [0, n) drawn from r.
func Perm(r Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(r.Uint64() % uint64(i+1))
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place uniformly at random.
func Shuffle[T any](r Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Hash64 mixes x through the splitmix64 finalizer; it is the hash used by the
// sketch package (seeded by XOR-ing a per-row seed into the key).
func Hash64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// KahanSum accumulates float64 values with compensated (Kahan) summation.
// The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms, or by a relative factor tol for large magnitudes.
func AlmostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// Clamp01 clamps v into [0, 1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// IsSet reports whether probability p is (within Eps) settled at 0 or 1.
func IsSet(p float64) bool {
	return p <= Eps || p >= 1-Eps
}

// SnapProb rounds probabilities within Eps of 0 or 1 to exactly 0 or 1 and
// returns the result; other values pass through unchanged.
func SnapProb(p float64) float64 {
	if p <= Eps {
		return 0
	}
	if p >= 1-Eps {
		return 1
	}
	return p
}

// Log2Ceil returns ceil(log2(n)) for n >= 1 (0 for n == 1).
func Log2Ceil(n uint64) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var k KahanSum
	for _, x := range xs {
		d := x - m
		k.Add(d * d)
	}
	return k.Sum() / float64(len(xs))
}
