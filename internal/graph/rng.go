package graph

// rng is a small, fast, deterministic pseudo-random generator (splitmix64).
// The generators use it instead of math/rand so that graph instances are
// reproducible across runs and machines for a given seed, which keeps the
// experiment harness deterministic.
type rng struct{ state uint64 }

// gamma is splitmix64's increment: the state after k draws is
// seed + gamma·(k+1), which is what makes the generator seekable.
const gamma = 0x9e3779b97f4a7c15

func newRNG(seed uint64) *rng { return &rng{state: seed + gamma} }

// skip advances r past the next k draws without making them.
func (r *rng) skip(k uint64) { r.state += k * gamma }

func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n). n must be > 0.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Hash64 deterministically hashes x (splitmix64 finalizer). It is used for
// per-element randomness in parallel loops where a shared rng would race.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
