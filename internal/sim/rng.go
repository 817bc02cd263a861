package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (PCG-XSH-RR, 64-bit state, 32-bit output, extended to 64-bit output
// by pairing draws). It exists instead of math/rand so that simulation
// results are identical across Go releases: the stdlib generator's
// stream is not covered by the compatibility promise, this one is
// frozen here.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// NewRNG returns a generator seeded from seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = seed + r.inc
	r.next32()
	return r
}

// Split derives an independent generator from r's stream, for giving
// each simulated entity its own stream without cross-coupling.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
// It is the standard model for inter-arrival gaps in the workload
// generators.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns a log-normally distributed value where mu and
// sigma are the mean and standard deviation of the underlying normal.
// File-size distributions in both workloads are modelled this way.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Normal returns a standard normal deviate (Box–Muller; one value per
// call keeps the stream simple and deterministic).
func (r *RNG) Normal() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ZipfTable precomputes the cumulative distribution for Zipf sampling
// over [0, n) with exponent s.
type ZipfTable struct {
	cum []float64
}

// NewZipfTable builds the cumulative weight table. It panics on n <= 0
// or s <= 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 || s <= 0 {
		panic("sim: invalid Zipf parameters")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfTable{cum: cum}
}

// Sample draws one index from the table using r.
func (t *ZipfTable) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
