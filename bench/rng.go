package main

// rng is splitmix64. The benchmark owns its generator so that the
// inputs a seed produces cannot change when the system under test
// changes its own (internal/sim) generator.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a run seed and a stream
// label (workload, client index, purpose).
func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{s: seed}
	for _, x := range stream {
		r.s = r.next() ^ (x * 0x9e3779b97f4a7c15)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for
// every n the benchmark uses.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(p)
	return p
}

func (r *rng) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
