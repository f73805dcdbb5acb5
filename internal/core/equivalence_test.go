package core

import (
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// The equivalence layer: fixed-seed fits of the production sampler and
// of the reference sampler (reference_test.go) must shadow each other.
// Both consume randomness draw-for-draw identically, so the chains stay
// coupled and can only diverge where the production arithmetic — the
// quantized d^α (|α|·logBinWidth/2 relative error on a pair weight) and
// the reciprocal ψ̂ (≤2 ulp per tweet weight) — flips an inversion draw.
// These tests lock the observable consequences: near-total top-1
// agreement, an α refit within quantization tolerance, and matching
// noise estimates, across structurally different worlds.

// equivAgreementMin is the required fraction of users whose predicted
// top-1 city is identical under the two samplers. Independent chains on
// the same worlds agree only ~94–95% (measured); the coupled production
// sampler must do much better — treat a drop below 99% as a decoupling
// regression (RNG consumption or inversion order drifted), not as noise.
const equivAgreementMin = 0.99

// equivAlphaTol bounds |α_production − α_reference| after Gibbs-EM. The
// refit measures exact distances in both; the tolerance covers the
// assignment wiggle the weight quantization can induce.
const equivAlphaTol = 0.05

// equivNoiseTol bounds the difference of the edge and tweet noise rates.
const equivNoiseTol = 0.02

// equivWorlds are the three synthetic regimes the equivalence claim is
// tested on: a sparse following graph (little evidence per user, long
// phi tails), a tweet-heavy corpus (edge kernel rarely dominant), and
// the default mixed regime.
func equivWorlds() []struct {
	name string
	cfg  synth.Config
} {
	return []struct {
		name string
		cfg  synth.Config
	}{
		{"sparse-graph", synth.Config{Seed: 101, NumUsers: 500, NumLocations: 150, MeanFriends: 5, MeanTweets: 3}},
		{"tweet-heavy", synth.Config{Seed: 102, NumUsers: 400, NumLocations: 150, MeanFriends: 4, MeanTweets: 40}},
		{"mixed", synth.Config{Seed: 103, NumUsers: 500, NumLocations: 200}},
	}
}

// equivCorpus generates the world and hides the labels of one CV fold.
func equivCorpus(t *testing.T, wcfg synth.Config) *dataset.Corpus {
	t.Helper()
	d, err := synth.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	return d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
}

// fitReferencePair fits c with the reference sampler and with the
// production sampler under the same cfg and returns both models.
func fitReferencePair(t *testing.T, c *dataset.Corpus, cfg Config) (ref, prod *Model) {
	t.Helper()
	ref, err := fitReference(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = Fit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ref, prod
}

// top1Agreement is the fraction of users predicting the same top-1 city.
func top1Agreement(a, b *Model, c *dataset.Corpus) float64 {
	agree := 0
	for u := range c.Users {
		if a.Home(dataset.UserID(u)) == b.Home(dataset.UserID(u)) {
			agree++
		}
	}
	return float64(agree) / float64(len(c.Users))
}

// requireEquivalent asserts the coupled-chain bounds between a
// reference fit and a production fit.
func requireEquivalent(t *testing.T, ref, prod *Model, c *dataset.Corpus) {
	t.Helper()
	agree := top1Agreement(ref, prod, c)
	aR, bR := ref.AlphaBeta()
	aP, bP := prod.AlphaBeta()
	enR, tnR := ref.NoiseStats()
	enP, tnP := prod.NoiseStats()
	t.Logf("top-1 agreement %.4f; alpha reference %.4f production %.4f; beta reference %.5f production %.5f",
		agree, aR, aP, bR, bP)
	if agree < equivAgreementMin {
		t.Errorf("top-1 agreement %.4f < %.2f — production chain decoupled from the reference", agree, equivAgreementMin)
	}
	if math.Abs(aR-aP) > equivAlphaTol {
		t.Errorf("alpha diverged: reference %.4f vs production %.4f (tol %.2f)", aR, aP, equivAlphaTol)
	}
	if math.Abs(enR-enP) > equivNoiseTol || math.Abs(tnR-tnP) > equivNoiseTol {
		t.Errorf("noise estimates diverged: reference (%.4f, %.4f) vs production (%.4f, %.4f)", enR, tnR, enP, tnP)
	}
}

// TestDistTableEquivalence is the headline property test: on every
// world, production vs reference fits with the same seed at Workers=1
// agree on ≥99% of top-1 predictions, refit α within quantization
// tolerance, and estimate the same noise rates. The test and its
// per-variable/<world> cells keep the names they had when the exact
// side was the distance table's off path, so results line up with
// earlier runs.
func TestDistTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence property tests run full fits; skipped in -short")
	}
	for _, w := range equivWorlds() {
		t.Run("per-variable/"+w.name, func(t *testing.T) {
			cfg := Config{Seed: 7, Iterations: 12, Workers: 1, GibbsEM: true, EMInterval: 4, EMPairSample: 30000}
			c := equivCorpus(t, w.cfg)
			ref, prod := fitReferencePair(t, c, cfg)
			requireEquivalent(t, ref, prod, c)
		})
	}
}

// TestDistTableEquivalenceSmoke is the -short leg: one small mixed
// world, same assertions, plus the collapsed-count invariants of the
// reference fit itself.
func TestDistTableEquivalenceSmoke(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 8, Workers: 1, GibbsEM: true, EMInterval: 4, EMPairSample: 20000}
	c := equivCorpus(t, synth.Config{Seed: 104, NumUsers: 250, NumLocations: 100})
	ref, prod := fitReferencePair(t, c, cfg)
	requireEquivalent(t, ref, prod, c)
	checkVenueInvariants(t, ref)
}
