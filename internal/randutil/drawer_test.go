package randutil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawerSizes spans the regimes InvertCum switches between: empty,
// singleton, short linear-scan lengths, both sides of the scan→binary
// crossover, and comfortably-binary lengths.
func drawerSizes() []int {
	return []int{0, 1, 2, 3, 7, InvertCrossover - 1, InvertCrossover, InvertCrossover + 1, 40, 100, 257}
}

// randWeights fills n weights from the generator: mostly positive, with
// a sprinkling of exact zeros and (when allowNeg) negatives, so the
// skip-non-positive contract is exercised at every size.
func randWeights(rng *rand.Rand, n int, allowNeg bool) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(10) {
		case 0:
			w[i] = 0
		case 1:
			if allowNeg {
				w[i] = -rng.Float64()
			} else {
				w[i] = rng.Float64() * 1e-12
			}
		default:
			w[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(6)-3))
		}
	}
	return w
}

// prefixOf accumulates weights into the prefix sums InvertCum inverts,
// with non-positive weights contributing zero mass, exactly as
// Categorical skips them.
func prefixOf(w []float64) []float64 {
	cum := make([]float64, len(w))
	total := 0.0
	for i, wi := range w {
		if wi > 0 {
			total += wi
		}
		cum[i] = total
	}
	return cum
}

// TestInvertCumMatchesCategorical is the coupling property: on identical
// RNG streams, a prefix fill plus InvertCum's single-uniform inversion
// must return exactly the index sequence Categorical returns on the raw
// weights — across sizes spanning the crossover and weights including
// zeros and negatives. This is the contract that lets the sampler's
// chains shadow the reference sampler's draw for draw.
func TestInvertCumMatchesCategorical(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	for _, n := range drawerSizes() {
		for trial := 0; trial < 50; trial++ {
			w := randWeights(gen, n, true)
			seed := gen.Int63()
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			for draw := 0; draw < 4; draw++ {
				want := Categorical(rngA, w)
				got := InvertCum(rngB, prefixOf(w))
				if got != want {
					t.Fatalf("n=%d trial=%d draw=%d: InvertCum %d != Categorical %d (weights %v)", n, trial, draw, got, want, w)
				}
				// The streams must also stay aligned: -1 consumes no
				// uniform, everything else exactly one.
				if rngA.Float64() != rngB.Float64() {
					t.Fatalf("n=%d trial=%d draw=%d: RNG streams diverged after draw", n, trial, draw)
				}
			}
		}
	}
}

// TestInvertCumCrossoverBoundary forces identical prefixes through both
// inversion regimes: a draw over n=InvertCrossover (linear scan) and the
// same mass extended by one zero-weight category to n=InvertCrossover+1
// (binary search) must pick the same category for the same uniform —
// the appended flat step can never be drawn.
func TestInvertCumCrossoverBoundary(t *testing.T) {
	gen := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		w := randWeights(gen, InvertCrossover, false)
		scan := make([]float64, 0, InvertCrossover+1)
		total := 0.0
		for _, wi := range w {
			if wi > 0 {
				total += wi
			}
			scan = append(scan, total)
		}
		binary := append(append([]float64{}, scan...), total) // one flat step → binary regime
		seed := gen.Int63()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		a := InvertCum(rngA, scan)
		b := InvertCum(rngB, binary)
		if a != b {
			t.Fatalf("trial %d: scan regime drew %d, binary regime drew %d", trial, a, b)
		}
	}
}

// TestInvertCumEdgeCases locks the degenerate inputs: empty, all-zero,
// and all-negative draws return -1 and consume no randomness; zero and
// negative entries between positive ones are never drawn.
func TestInvertCumEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range [][]float64{{}, {0}, {0, 0, 0}, {-1, -2}, {0, -3, 0}} {
		r1 := rand.New(rand.NewSource(99))
		if got := InvertCum(r1, prefixOf(w)); got != -1 {
			t.Errorf("weights %v: got %d, want -1", w, got)
		}
		if r1.Float64() != rand.New(rand.NewSource(99)).Float64() {
			t.Errorf("weights %v: a -1 draw consumed randomness", w)
		}
	}
	// Zero/negative entries surrounded by mass must never be selected.
	w := []float64{1, 0, 2, -5, 3}
	cum := prefixOf(w)
	counts := make([]int, len(w))
	for i := 0; i < 5000; i++ {
		counts[InvertCum(rng, cum)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Errorf("zero/negative categories drawn: counts %v", counts)
	}
}

// TestInvertCumFrequencies is the distributional property: empirical
// draw frequencies track the normalized weights. (Exactness per draw is
// already locked against Categorical; this guards the inversion's use
// of the uniform end to end.)
func TestInvertCumFrequencies(t *testing.T) {
	w := []float64{1, 2, 3, 4, 0, 10}
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	rng := rand.New(rand.NewSource(5))
	cum := prefixOf(w)
	const draws = 200000
	counts := make([]int, len(w))
	for i := 0; i < draws; i++ {
		counts[InvertCum(rng, cum)]++
	}
	for i, wi := range w {
		got := float64(counts[i]) / draws
		want := wi / totalW
		if math.Abs(got-want) > 0.005 {
			t.Errorf("category %d: frequency %.4f, want %.4f±0.005", i, got, want)
		}
	}
}

// TestCumFallback pins the float-slack fallback: the last index whose
// prefix strictly increased, skipping trailing flat (zero-weight) steps.
func TestCumFallback(t *testing.T) {
	cases := []struct {
		cum  []float64
		want int
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 2}, 1},
		{[]float64{0, 0, 5, 5}, 2},
		{[]float64{2}, 0},
		{[]float64{0, 0}, -1},
		{nil, -1},
	}
	for _, c := range cases {
		if got := cumFallback(c.cum); got != c.want {
			t.Errorf("cumFallback(%v) = %d, want %d", c.cum, got, c.want)
		}
	}
}

// --- Micro-benchmarks: Categorical's sum-and-scan and the bare
// inversion over a prebuilt prefix, across both inversion regimes.

func benchWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

func BenchmarkCategoricalBySize(b *testing.B) {
	for _, n := range []int{8, 16, 40, 64, 128, 256, 512} {
		w := benchWeights(n)
		rng := rand.New(rand.NewSource(2))
		b.Run(sizeName(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += Categorical(rng, w)
			}
			_ = sink
		})
	}
}

// BenchmarkInvertCum isolates the inversion (prefix already built) —
// the per-draw floor once a kernel fills prefixes in its weight loop.
func BenchmarkInvertCum(b *testing.B) {
	for _, n := range []int{8, 16, 40, 64, 128, 256, 512} {
		w := benchWeights(n)
		cum := make([]float64, n)
		total := 0.0
		for i, wi := range w {
			total += wi
			cum[i] = total
		}
		rng := rand.New(rand.NewSource(2))
		b.Run(sizeName(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += InvertCum(rng, cum)
			}
			_ = sink
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%03d", n) }
