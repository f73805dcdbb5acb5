package randutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCategoricalFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		idx := Categorical(rng, weights)
		if idx < 0 || idx > 3 {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %f, want %f", i, got, want)
		}
	}
}

func TestCategoricalEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if Categorical(rng, nil) != -1 {
		t.Error("empty weights should return -1")
	}
	if Categorical(rng, []float64{0, 0}) != -1 {
		t.Error("zero weights should return -1")
	}
	// Zero-weight entries are never drawn.
	for i := 0; i < 1000; i++ {
		if idx := Categorical(rng, []float64{0, 5, 0}); idx != 1 {
			t.Fatalf("drew zero-weight category %d", idx)
		}
	}
	// Negative weights are ignored rather than corrupting the draw.
	for i := 0; i < 1000; i++ {
		if idx := Categorical(rng, []float64{-3, 2}); idx != 1 {
			t.Fatalf("drew negative-weight category %d", idx)
		}
	}
}

func TestBernoulli(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if Bernoulli(rng, 0) || Bernoulli(rng, -1) {
		t.Error("p<=0 should always be false")
	}
	if !Bernoulli(rng, 1) || !Bernoulli(rng, 2) {
		t.Error("p>=1 should always be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %f", f)
	}
}

func TestDirichletProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		alphas := make([]float64, k)
		for i := range alphas {
			alphas[i] = r.Float64() * 5
		}
		v := Dirichlet(rng, alphas)
		var sum float64
		for _, p := range v {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDirichletConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// With one huge alpha the mass should concentrate on that dimension.
	var mean0 float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := Dirichlet(rng, []float64{100, 1, 1})
		mean0 += v[0]
	}
	mean0 /= n
	if mean0 < 0.9 {
		t.Errorf("dominant dimension mean %f, want > 0.9", mean0)
	}
	// Small symmetric alpha should produce sparse draws (max component big).
	var maxAvg float64
	for i := 0; i < n; i++ {
		v := SymmetricDirichlet(rng, 10, 0.05)
		mx := 0.0
		for _, p := range v {
			if p > mx {
				mx = p
			}
		}
		maxAvg += mx
	}
	maxAvg /= n
	if maxAvg < 0.7 {
		t.Errorf("sparse Dirichlet max component avg %f, want > 0.7", maxAvg)
	}
}

func TestDirichletDegenerateAlphas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := Dirichlet(rng, []float64{0, -1, 2})
	var sum float64
	for _, p := range v {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("degenerate alphas: sum %f", sum)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	weights := []float64{5, 0, 1, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Errorf("Len = %d", a.Len())
	}
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[a.Draw(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %f, want %f", i, got, want)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestZipfDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	degs := ZipfDegrees(rng, 20000, 15, 2.0)
	if len(degs) != 20000 {
		t.Fatalf("len = %d", len(degs))
	}
	var sum, max float64
	for _, d := range degs {
		if d < 1 {
			t.Fatalf("degree %d < 1", d)
		}
		if d > 19999 {
			t.Fatalf("degree %d exceeds n-1", d)
		}
		sum += float64(d)
		if float64(d) > max {
			max = float64(d)
		}
	}
	mean := sum / float64(len(degs))
	if mean < 8 || mean > 25 {
		t.Errorf("mean degree %f, want ~15", mean)
	}
	if max < 100 {
		t.Errorf("max degree %f: distribution should be heavy-tailed", max)
	}
	if ZipfDegrees(rng, 0, 15, 2) != nil {
		t.Error("n=0 should return nil")
	}
	// Degenerate parameters fall back to safe defaults.
	degs = ZipfDegrees(rng, 100, 0, 0)
	for _, d := range degs {
		if d < 1 {
			t.Fatal("degenerate params produced degree < 1")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	got := SampleWithoutReplacement(rng, 10, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	if len(SampleWithoutReplacement(rng, 3, 10)) != 3 {
		t.Error("k>n should return n items")
	}
	if SampleWithoutReplacement(rng, 0, 5) != nil || SampleWithoutReplacement(rng, 5, 0) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

// Property: alias table and linear categorical draw the same distribution.
func TestAliasAgreesWithCategorical(t *testing.T) {
	weights := []float64{2, 7, 1, 0, 10, 3}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(12))
	const n = 300000
	ca := make([]float64, len(weights))
	cb := make([]float64, len(weights))
	for i := 0; i < n; i++ {
		ca[a.Draw(rngA)]++
		cb[Categorical(rngB, weights)]++
	}
	for i := range weights {
		if math.Abs(ca[i]-cb[i])/n > 0.01 {
			t.Errorf("category %d: alias %f vs categorical %f", i, ca[i]/n, cb[i]/n)
		}
	}
}
