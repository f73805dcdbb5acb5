package core

import (
	"fmt"
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/synth"
)

// Tests for the hot-path round-4 levers (DESIGN.md §14): the per-author
// tweet-draw batching layer, the interleaved candidate/prior/ϕ layout,
// and the sparse per-city pow rows above the dense pair-matrix ceiling.
// Each replaced an off path it was bit-identical to; the fingerprints
// pinned here are the values both settings produced before the off
// paths were retired. The sparse rows also keep the usual ≥99% coupling
// to the reference sampler.

// TestBatchLayoutShardedIdentity pins the batched, interleaved sharded
// fit, both boundary protocols: the overlay reads, barrier folds, and
// stale-op interplay must survive batching.
// The pins are the goldenSharded values, which the unbatched, per-user
// allocated fits also produced.
func TestBatchLayoutShardedIdentity(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenSharded {
		t.Run(fmt.Sprintf("stale=%v", g.stale), func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Shards = 4
			cfg.StaleBoundary = g.stale
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fitFingerprint(m)
			t.Logf("fingerprint: %#x", got)
			if got != g.fingerprint {
				t.Errorf("sharded stale=%v: fingerprint %#x differs from golden %#x", g.stale, got, g.fingerprint)
			}
			if st := m.TweetBatchStats(); st.Built == 0 || st.Hits == 0 {
				t.Errorf("sharded batch layer inactive: stats %+v", st)
			}
		})
	}
}

// tweetBatchBoundaryFingerprint is the long-run world's fit below,
// captured with batching on and off (both gave this value).
const tweetBatchBoundaryFingerprint = uint64(0x12aab703d18c20d5)

// TestTweetBatchBoundaryInvalidation drives the batching layer's repair
// edge hard: few authors with very long tweet runs, so gathered entries
// live across many draws and the authors' own moves (z moves and ν
// flips) must repair gathered counts mid-run. The fit must reproduce the
// pinned fingerprint, and the stats must prove the edge actually fired
// (reuse without repairs would mean the world was too tame to test
// invalidation).
func TestTweetBatchBoundaryInvalidation(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 107, NumUsers: 30, NumLocations: 80, MeanFriends: 4, MeanTweets: 200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Iterations: 6, Workers: 1, GibbsEM: true, EMInterval: 3, EMPairSample: 20000}
	batched, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := batched.TweetBatchStats()
	t.Logf("batch stats: %+v", st)
	if st.Hits == 0 {
		t.Error("no batch entry reuse on a long-run tweet world — batching is inert")
	}
	if st.Repairs == 0 {
		t.Error("no in-place repairs — the invalidation edge was never exercised")
	}
	got := fitFingerprint(batched)
	t.Logf("fingerprint: %#x", got)
	if got != tweetBatchBoundaryFingerprint {
		t.Errorf("batched fingerprint %#x != pinned %#x — a repair missed a gathered count", got, tweetBatchBoundaryFingerprint)
	}
}

// sparseWorld is a gazetteer just past the dense pair-matrix ceiling —
// big enough that the dense build is skipped, small enough to fit in
// test time.
func sparseWorld(seed int64, users int) synth.Config {
	return synth.Config{Seed: seed, NumUsers: users, NumLocations: MaxDensePairCities + 152}
}

// TestSparseBinsPowRowMatchesFallback is the unit-level identity: a
// sparse pow row serves exactly the values a single per-lookup
// quantization computes — same quantized log, same exp — across
// α-epochs. Row-walking kernels and single lookups therefore cannot
// diverge however they mix.
func TestSparseBinsPowRowMatchesFallback(t *testing.T) {
	d, err := synth.Generate(sparseWorld(61, 10))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Corpus.Gaz
	dt := distTableFor(newDistCalc(g), g)
	probes := []gazetteer.CityID{0, 3, 511, gazetteer.CityID(g.Len() - 1)}
	for _, alpha := range []float64{-0.55, -0.8} {
		dt.setAlpha(alpha)
		if active, dense := (&Model{dt: dt}).DistTableStatus(); !active || dense {
			t.Fatalf("alpha=%v: status active=%v dense=%v, want active without dense", alpha, active, dense)
		}
		for _, a := range probes {
			prow := dt.powRow(a)
			if prow == nil {
				t.Fatalf("alpha=%v: sparse table returned no pow row for city %d", alpha, a)
			}
			for _, b := range probes {
				if want := dt.pow(a, b); prow[b] != want {
					t.Errorf("alpha=%v: powRow(%d)[%d] = %v, per-lookup pow = %v", alpha, a, b, prow[b], want)
				}
			}
		}
	}
}

// sparseBinsFingerprint is the fit below, captured with sparse bin rows
// and with the retired per-lookup fallback (both gave this value).
const sparseBinsFingerprint = uint64(0x1636163e41d03858)

// TestSparseBinsFingerprintEquivalence pins the fit-level identity at
// L > MaxDensePairCities under the parallel sweep, where rows are built
// and read concurrently. Also locks the reported status: the table must
// be active on sparse rows without the dense matrix.
func TestSparseBinsFingerprintEquivalence(t *testing.T) {
	d, err := synth.Generate(sparseWorld(105, 150))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Iterations: 4, Workers: 4, GibbsEM: true, EMInterval: 2, EMPairSample: 20000}
	m, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if active, dense := m.DistTableStatus(); !active || dense {
		t.Errorf("DistTableStatus active=%v dense=%v, want active without dense above the ceiling", active, dense)
	}
	if !m.DistTableSparseBins() {
		t.Error("fit above the ceiling did not engage the sparse bin rows")
	}
	got := fitFingerprint(m)
	t.Logf("fingerprint: %#x", got)
	if got != sparseBinsFingerprint {
		t.Errorf("sparse bin-row fingerprint %#x != pinned %#x", got, sparseBinsFingerprint)
	}
}

// TestSparseBinsDistEquivalence is the large-gazetteer leg of the
// equivalence layer: at L > MaxDensePairCities, a production fit
// (d^α served entirely from sparse bin rows — no dense matrix exists)
// must still shadow the reference sampler's exact-d^α fit to ≥99%
// top-1 and refit α within quantization tolerance.
func TestSparseBinsDistEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence property tests run full fits; skipped in -short")
	}
	d, err := synth.Generate(sparseWorld(106, 300))
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))

	cfg := Config{Seed: 7, Iterations: 8, Workers: 1, GibbsEM: true, EMInterval: 4, EMPairSample: 30000}
	ref, prod := fitReferencePair(t, c, cfg)
	if active, dense := prod.DistTableStatus(); !active || dense {
		t.Fatalf("DistTableStatus active=%v dense=%v, want sparse-active above the ceiling", active, dense)
	}
	if !prod.DistTableSparseBins() {
		t.Fatal("fit above the ceiling did not engage the sparse bin rows")
	}
	agree := top1Agreement(ref, prod, c)
	aR, _ := ref.AlphaBeta()
	aP, _ := prod.AlphaBeta()
	t.Logf("L=%d top-1 agreement %.4f; alpha reference %.4f production %.4f", d.Corpus.Gaz.Len(), agree, aR, aP)
	if agree < equivAgreementMin {
		t.Errorf("top-1 agreement %.4f < %.2f — sparse-row chain decoupled from the reference", agree, equivAgreementMin)
	}
	if math.Abs(aR-aP) > equivAlphaTol {
		t.Errorf("alpha diverged: reference %.4f vs production %.4f (tol %.2f)", aR, aP, equivAlphaTol)
	}
}
