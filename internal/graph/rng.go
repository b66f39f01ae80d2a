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

// KOutPick is the adjacency position that k-out sampling's i-th random pick
// for a vertex v of degree deg lands on.
func KOutPick(v, i, deg, seed uint64) Vertex {
	return Vertex(Hash64(v<<20^i^seed) % deg)
}

// KOutPosition is the adjacency position k-out sampling reads for the i-th
// of k picks of a vertex v of degree deg > 0 when its first lead picks are
// positions 0..lead-1 and the rest are KOutPick, and false when the pick is
// dropped: a lead position past the end of the list, or a random pick on
// position 0 that a lead pick already took (the same edge again). It is the
// one definition of the rule, for the per-vertex Rep path and the CSR
// kernel alike.
func KOutPosition(v uint64, i, deg, lead int, seed uint64) (Vertex, bool) {
	if i < lead {
		return Vertex(i), i < deg
	}
	p := KOutPick(v, uint64(i), uint64(deg), seed)
	return p, p != 0 || lead == 0
}
