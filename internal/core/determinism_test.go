package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// fitFingerprint reduces a fitted model to a single hash covering every
// user's full profile (city IDs and exact float64 weight bits), the
// refined (α, β), and the noise rates. Two fits agree on the fingerprint
// iff they are bit-for-bit identical in everything the model exposes.
func fitFingerprint(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	for u := range m.corpus.Users {
		for _, wl := range m.Profile(dataset.UserID(u)) {
			w64(uint64(wl.City))
			wf(wl.Weight)
		}
	}
	alpha, beta := m.AlphaBeta()
	wf(alpha)
	wf(beta)
	en, tn := m.NoiseStats()
	wf(en)
	wf(tn)
	return h.Sum64()
}

// goldenCfg is the fixed configuration the sequential-determinism golden
// was captured under (pre-parallelization sequential sampler, after the
// labeledPairHistogram and initState fixes). It exercises the noise
// mixture, Gibbs-EM, and both observation types.
func goldenCfg() Config {
	return Config{
		Seed:         7,
		Iterations:   8,
		Workers:      1,
		GibbsEM:      true,
		EMInterval:   3,
		EMPairSample: 20000,
	}
}

func goldenWorld(t testing.TB) *synth.Config {
	t.Helper()
	return &synth.Config{Seed: 73, NumUsers: 300, NumLocations: 120}
}

// goldenFingerprint is the fingerprint of the pre-parallelization
// sequential sampler on the golden world/config, which evaluated every
// d^α exactly. The reference sampler (reference_test.go) and the
// production sampler at Workers=1 must both keep reproducing it
// bit-for-bit: on this world neither the distance table's quantization
// nor the reciprocal ψ̂ flips a single draw.
const goldenFingerprint = uint64(0xdeef2b9070a15517)

// TestWorkers1MatchesSequentialGolden locks the Workers=1 production
// sampler to the pre-change sequential sampler.
func TestWorkers1MatchesSequentialGolden(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := fitFingerprint(m)
	t.Logf("fingerprint: %#x", got)
	if got != goldenFingerprint {
		t.Errorf("Workers=1 fingerprint %#x differs from the sequential golden %#x", got, goldenFingerprint)
	}
}

// goldenMatrix pins the production sampler at both worker counts to a
// frozen fingerprint on the golden world/config, so any refactor that
// changes RNG consumption, partitioning, or table arithmetic is caught
// immediately. The Workers=1 entry is the original pre-parallelization
// golden; the Workers=4 entry was captured from the first
// distance-table implementation.
var goldenMatrix = []struct {
	name        string
	workers     int
	fingerprint uint64
}{
	{"workers=1/table", 1, goldenFingerprint},
	{"workers=4/table", 4, 0x41becc5c7b68d6e1},
}

// goldenPsiCell and goldenDrawCell are the cell-name segments of the
// retired PsiStore and FusedDraw axes, kept so the production cells'
// names match those of earlier runs. goldenReferenceCell names the
// reference sampler's cell, which took over from the retired
// exact-d^α, Categorical-draw cell of the same name.
const (
	goldenPsiCell       = "psi=venue"
	goldenDrawCell      = "draw=fused"
	goldenReferenceCell = "workers=1/exact/psi=venue/draw=scan"
)

// goldenCellName is a goldenMatrix entry's full cell name.
func goldenCellName(name string) string {
	return name + "/" + goldenPsiCell + "/" + goldenDrawCell
}

// TestGoldenFingerprintMatrix runs every goldenMatrix cell plus the
// reference sampler, which must reproduce the Workers=1 golden: the
// production chain and the oracle it is equivalence-tested against are
// bit-identical here. A diverging production cell with an intact
// reference cell means the fast path decoupled (RNG consumption or
// inversion order drifted), not that the golden is stale.
func TestGoldenFingerprintMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, m *Model, err error, want uint64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got := fitFingerprint(m)
		t.Logf("fingerprint: %#x", got)
		if got != want {
			t.Errorf("fingerprint %#x differs from golden %#x", got, want)
		}
	}
	t.Run(goldenReferenceCell, func(t *testing.T) {
		m, err := fitReference(&d.Corpus, goldenCfg())
		check(t, m, err, goldenFingerprint)
	})
	for _, g := range goldenMatrix {
		t.Run(goldenCellName(g.name), func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Workers = g.workers
			m, err := Fit(&d.Corpus, cfg)
			check(t, m, err, g.fingerprint)
		})
	}
}
