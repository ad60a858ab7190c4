package main

// prng is the harness's seeded random stream (splitmix64): everything a
// run draws — fault script, synthetic history, request mix — is a pure
// function of --seed. It implements router.Rand, so the recorded
// FaultyRouter sessions draw from it too.
type prng struct{ state uint64 }

func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)} }

func (r *prng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0,1).
func (r *prng) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Intn returns a uniform sample in [0,n); n must be positive.
func (r *prng) Intn(n int) int { return int(r.next() % uint64(n)) }

// Bool returns true with probability p.
func (r *prng) Bool(p float64) bool { return r.Float64() < p }
