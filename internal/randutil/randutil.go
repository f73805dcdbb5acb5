// Package randutil collects the sampling primitives the generator and the
// Gibbs sampler share: categorical draws from unnormalized weights, alias
// tables for repeated draws, Dirichlet and symmetric-Dirichlet draws, Zipf
// degree sampling, and reservoir selection. All functions take an explicit
// *rand.Rand so every experiment is reproducible from a single seed.
package randutil

import (
	"errors"
	"math"
	"math/rand"
)

// Categorical draws an index from the unnormalized non-negative weights.
// It returns -1 when the weights are empty or sum to zero.
func Categorical(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 || len(weights) == 0 {
		return -1
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// Bernoulli returns true with probability p (clamped into [0,1]).
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Dirichlet draws a probability vector from Dirichlet(alphas) via
// normalized Gamma draws. Non-positive alphas are treated as a tiny
// positive concentration so degenerate priors still produce a draw.
func Dirichlet(rng *rand.Rand, alphas []float64) []float64 {
	out := make([]float64, len(alphas))
	var sum float64
	for i, a := range alphas {
		if a <= 0 {
			a = 1e-6
		}
		g := gammaDraw(rng, a)
		out[i] = g
		sum += g
	}
	if sum <= 0 {
		// All draws underflowed; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SymmetricDirichlet draws a k-dimensional vector from Dirichlet(alpha,...).
func SymmetricDirichlet(rng *rand.Rand, k int, alpha float64) []float64 {
	alphas := make([]float64, k)
	for i := range alphas {
		alphas[i] = alpha
	}
	return Dirichlet(rng, alphas)
}

// gammaDraw samples Gamma(shape, 1) using Marsaglia & Tsang's method, with
// the standard boost for shape < 1.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Alias is a Walker alias table for O(1) repeated categorical draws from a
// fixed distribution. Build cost is O(n).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from unnormalized non-negative weights.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("randutil: empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, errors.New("randutil: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("randutil: zero total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Draw samples an index in O(1).
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the number of categories.
func (a *Alias) Len() int { return len(a.prob) }

// ZipfDegrees samples n degrees from a shifted Zipf-like distribution with
// the given mean: degree = max(1, round(mean * Z / E[Z])) where Z is
// Pareto(s). It mimics the heavy-tailed follower counts of a social graph
// while keeping the requested mean approximately.
func ZipfDegrees(rng *rand.Rand, n int, mean float64, s float64) []int {
	if n <= 0 {
		return nil
	}
	if mean < 1 {
		mean = 1
	}
	if s <= 1 {
		s = 2.0
	}
	// E[Pareto(s, xm=1)] = s/(s-1)
	ez := s / (s - 1)
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		z := math.Pow(u, -1/s) // Pareto(s) with xm=1
		d := int(math.Round(mean * z / ez))
		if d < 1 {
			d = 1
		}
		if d > n-1 && n > 1 {
			d = n - 1
		}
		out[i] = d
	}
	return out
}

// SampleWithoutReplacement returns k distinct indices from [0, n) chosen
// uniformly. When k >= n, it returns all n indices in shuffled order.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}
