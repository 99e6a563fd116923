package sim

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 /
// xorshift-style) used for workload jitter. It is seeded explicitly so
// experiments replay identically; math/rand is deliberately avoided so
// that the stream is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped so the
// stream is never degenerate).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean —
// the inter-arrival draw of a Poisson process. Inverse-CDF over the
// uniform stream, so one Uint64 per draw and the sequence replays
// identically from the same seed.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log1p(-r.Float64())
}

// Pareto returns a Pareto(alpha, xm)-distributed value: minimum xm,
// tail index alpha. The mean is alpha*xm/(alpha-1) for alpha > 1 —
// heavy-tailed inter-arrival gaps and flow sizes both come from here.
func (r *RNG) Pareto(alpha, xm float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (r *RNG) Jitter(d Time, frac float64) Time {
	f := 1 + frac*(2*r.Float64()-1)
	return Time(float64(d) * f)
}
