package core

import (
	"math"
	"path/filepath"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// TestShardPlanPartition: the shard plan must partition users, edges and
// tweets consistently — intra edges have both endpoints on the owner
// shard, owned lists hold every edge exactly once (keyed by the follower
// side), the boundary coloring is a per-class matching covering exactly
// the cross-shard edges, and tweets follow their author's shard.
func TestShardPlanPartition(t *testing.T) {
	d := testWorld(t, 2)
	c := &d.Corpus
	const shards = 4
	p := buildShardPlan(c, shards, true, true)

	for u := range c.Users {
		if want := int32(dataset.ShardOf(dataset.UserID(u), shards)); p.shardOf[u] != want {
			t.Fatalf("user %d: shardOf %d, want %d", u, p.shardOf[u], want)
		}
	}

	seenOwned := make([]bool, len(c.Edges))
	for s, list := range p.owned {
		for _, e := range list {
			if seenOwned[e] {
				t.Fatalf("edge %d owned twice", e)
			}
			seenOwned[e] = true
			if p.shardOf[c.Edges[e].From] != int32(s) {
				t.Fatalf("edge %d owned by shard %d but follower lives on %d", e, s, p.shardOf[c.Edges[e].From])
			}
		}
	}
	for e, ok := range seenOwned {
		if !ok {
			t.Fatalf("edge %d unowned", e)
		}
	}

	intraBoundary := make([]int, len(c.Edges))
	for s, list := range p.intra {
		for _, e := range list {
			intraBoundary[e]++
			edge := c.Edges[e]
			if p.shardOf[edge.From] != int32(s) || p.shardOf[edge.To] != int32(s) {
				t.Fatalf("intra edge %d of shard %d crosses shards", e, s)
			}
		}
	}
	for _, e := range p.boundary {
		intraBoundary[e]++
		edge := c.Edges[e]
		if p.shardOf[edge.From] == p.shardOf[edge.To] {
			t.Fatalf("boundary edge %d does not cross shards", e)
		}
	}
	for e, n := range intraBoundary {
		if n != 1 {
			t.Fatalf("edge %d appears %d times across intra+boundary", e, n)
		}
	}

	seenClass := map[int32]bool{}
	for ci, class := range p.bclasses {
		touched := map[dataset.UserID]bool{}
		for _, e := range class {
			if seenClass[e] {
				t.Fatalf("boundary edge %d in two classes", e)
			}
			seenClass[e] = true
			edge := c.Edges[e]
			if touched[edge.From] || touched[edge.To] {
				t.Fatalf("boundary class %d: two edges share a user", ci)
			}
			touched[edge.From] = true
			touched[edge.To] = true
		}
	}
	if len(seenClass) != len(p.boundary) {
		t.Fatalf("boundary classes cover %d of %d boundary edges", len(seenClass), len(p.boundary))
	}
	if len(p.boundary) == 0 {
		t.Fatal("test world produced no boundary edges; partition not exercised")
	}

	seenTweet := make([]bool, len(c.Tweets))
	for s, shard := range p.tweets {
		for _, k := range shard {
			if seenTweet[k] {
				t.Fatalf("tweet %d in two shards", k)
			}
			seenTweet[k] = true
			if p.shardOf[c.Tweets[k].User] != int32(s) {
				t.Fatalf("tweet %d on shard %d but author lives on %d", k, s, p.shardOf[c.Tweets[k].User])
			}
		}
	}
	for k, ok := range seenTweet {
		if !ok {
			t.Fatalf("tweet %d missing from plan", k)
		}
	}
}

// TestShardedDeterministic: the sharded sampler must be fully
// reproducible for a fixed (Seed, Shards) pair, under both boundary
// protocols.
func TestShardedDeterministic(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []bool{false, true} {
		cfg := goldenCfg()
		cfg.Shards = 4
		cfg.StaleBoundary = stale
		m1, err := Fit(&d.Corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Fit(&d.Corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if f1, f2 := fitFingerprint(m1), fitFingerprint(m2); f1 != f2 {
			t.Errorf("stale=%v: Shards=4 fingerprints differ across identical runs: %#x vs %#x", stale, f1, f2)
		}
	}
}

// goldenSharded pins the Shards=4 chains on the golden world, both
// boundary protocols, like the Workers entries of the golden matrix:
// any change to the shard partition, the phase order, the stale
// snapshot/ops arithmetic, or per-shard RNG streams shows up here.
var goldenSharded = []struct {
	name        string
	stale       bool
	fingerprint uint64
}{
	{"shards=4/sync", false, 0x71f6fd6f14d1c015},
	{"shards=4/stale", true, 0xf9000e68ae6bc4e5},
}

func TestShardedGoldenPins(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenSharded {
		t.Run(g.name, func(t *testing.T) {
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
				t.Errorf("%s fingerprint %#x differs from golden %#x", g.name, got, g.fingerprint)
			}
		})
	}
}

// TestShards1GoldenMatrix is the satellite lock: an explicit Shards=1
// must reproduce the golden fingerprint matrix cell-for-cell — Shards=1
// is defined as the exact pre-sharding chain, not merely an equivalent
// one.
func TestShards1GoldenMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenMatrix {
		name := goldenCellName(g.name)
		t.Run(name+"/shards=1", func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Workers = g.workers
			cfg.Shards = 1
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fitFingerprint(m); got != g.fingerprint {
				t.Errorf("Shards=1 %s fingerprint %#x differs from golden %#x", name, got, g.fingerprint)
			}
		})
	}
}

// TestShards1StreamedWorldGolden: loading the golden world back through
// the in-memory wrapper and the streaming loader must yield the same
// corpus, and a Shards=1 fit on either must be bit-identical — the
// ingestion path must never perturb the chain.
func TestShards1StreamedWorldGolden(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "golden")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	mem, err := dataset.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := dataset.LoadStreamed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dataset.Fingerprint(&mem.Corpus) != dataset.Fingerprint(&streamed.Corpus) {
		t.Fatal("streamed corpus fingerprint differs from in-memory load")
	}
	cfg := goldenCfg()
	cfg.Shards = 1
	m1, err := Fit(&mem.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(&streamed.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := fitFingerprint(m1), fitFingerprint(m2); f1 != f2 {
		t.Errorf("streamed-load fit fingerprint %#x differs from in-memory %#x", f2, f1)
	}
}

// TestShardedCountInvariants: after a sharded fit the collapsed counts
// must be exactly consistent — the shard phases, the venue-delta fold,
// and the stale op application may not lose or double a single ±1.
func TestShardedCountInvariants(t *testing.T) {
	d := testWorld(t, 2)
	for name, cfg := range map[string]Config{
		"sync":  {Seed: 5, Iterations: 6, Shards: 4},
		"stale": {Seed: 5, Iterations: 6, Shards: 4, StaleBoundary: true},
	} {
		t.Run(name, func(t *testing.T) {
			m, _ := fitFold(t, d, cfg)
			c := &d.Corpus

			expect := make([]float64, len(c.Users))
			for s, e := range c.Edges {
				if !m.mu[s] {
					expect[e.From]++
					expect[e.To]++
				}
			}
			for k, tr := range c.Tweets {
				if !m.nu[k] {
					expect[tr.User]++
				}
			}
			for u := range c.Users {
				if m.phiSum[u] != expect[u] {
					t.Fatalf("user %d: phiSum=%f want %f", u, m.phiSum[u], expect[u])
				}
				var sum float64
				for _, v := range m.phi[u] {
					if v < 0 {
						t.Fatalf("user %d: negative count %f", u, v)
					}
					sum += v
				}
				if math.Abs(sum-m.phiSum[u]) > 1e-6 {
					t.Fatalf("user %d: phi sums to %f, phiSum=%f", u, sum, m.phiSum[u])
				}
			}

			checkVenueInvariants(t, m)
		})
	}
}

// TestShardedMatchesSequentialQuality: a sharded chain differs from the
// sequential one but must land at the same quality, for both boundary
// protocols — staleness is bounded by one sweep, so it may not cost
// accuracy.
func TestShardedMatchesSequentialQuality(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	seq, test := fitFold(t, d, Config{Seed: 19, Iterations: 10, Workers: 1})
	accSeq := accAt100(d, seq, test)
	for _, stale := range []bool{false, true} {
		sh, _ := fitFold(t, d, Config{Seed: 19, Iterations: 10, Shards: 4, StaleBoundary: stale})
		accSh := accAt100(d, sh, test)
		t.Logf("stale=%v: sequential=%.3f sharded=%.3f", stale, accSeq, accSh)
		if math.Abs(accSeq-accSh) > 0.12 {
			t.Errorf("stale=%v: sharded sampler diverged: seq=%.3f sharded=%.3f", stale, accSeq, accSh)
		}
		enS, tnS := seq.NoiseStats()
		enH, tnH := sh.NoiseStats()
		if math.Abs(enS-enH) > 0.1 || math.Abs(tnS-tnH) > 0.1 {
			t.Errorf("stale=%v: noise estimates diverged: seq=(%.3f, %.3f) sharded=(%.3f, %.3f)", stale, enS, tnS, enH, tnH)
		}
	}
}

// TestStaleVsSyncAgreement: the stale and synced protocols run different
// (equally valid) chains; their top-1 predictions must still broadly
// agree. The floor is set from the measured independent-chain agreement
// band (~0.94 on these worlds) minus slack — a collapse below it means
// the stale snapshot/ops arithmetic corrupted the chain, not that two
// chains disagree innocently.
func TestStaleVsSyncAgreement(t *testing.T) {
	d := testWorld(t, 2)
	cfg := Config{Seed: 7, Iterations: 8, Shards: 4, GibbsEM: true, EMInterval: 4, EMPairSample: 20000}
	sync, _ := fitFold(t, d, cfg)
	cfg.StaleBoundary = true
	stale, _ := fitFold(t, d, cfg)
	agree := top1Agreement(sync, stale, sync.corpus)
	t.Logf("stale-vs-sync top-1 agreement %.4f", agree)
	if agree < 0.90 {
		t.Errorf("stale-vs-sync top-1 agreement %.4f < 0.90", agree)
	}
}

// shardedAgreementMin is the top-1 agreement a sharded production fit
// must reach against the sequential reference fit. The sharded chain
// runs on per-shard RNG streams, so it is not coupled to the reference
// draw for draw; the floor is the independent-chain band (~0.94 on
// these worlds) minus slack, as for TestStaleVsSyncAgreement. A drop
// below it means a shard protocol samples a different posterior.
const shardedAgreementMin = 0.90

// TestShardedEquivalence compares Shards=4 production fits under both
// boundary protocols with the reference sampler on the mixed
// equivalence world.
func TestShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence property tests run full fits; skipped in -short")
	}
	c := equivCorpus(t, equivWorlds()[2].cfg)
	cfg := Config{Seed: 7, Iterations: 12, GibbsEM: true, EMInterval: 4, EMPairSample: 30000}
	requireShardedNearReference(t, c, cfg)
}

// TestShardedEquivalenceSmoke is the -short leg: one small world, both
// protocols.
func TestShardedEquivalenceSmoke(t *testing.T) {
	c := equivCorpus(t, synth.Config{Seed: 104, NumUsers: 250, NumLocations: 100})
	cfg := Config{Seed: 7, Iterations: 8, GibbsEM: true, EMInterval: 4, EMPairSample: 20000}
	requireShardedNearReference(t, c, cfg)
}

// requireShardedNearReference fits c with the reference sampler and
// with Shards=4 under both boundary protocols, and requires each
// sharded fit to agree with the reference on ≥shardedAgreementMin of
// top-1 predictions.
func requireShardedNearReference(t *testing.T, c *dataset.Corpus, cfg Config) {
	t.Helper()
	ref, err := fitReference(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	for _, stale := range []bool{false, true} {
		cfg.StaleBoundary = stale
		sh, err := Fit(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agree := top1Agreement(ref, sh, c)
		aR, _ := ref.AlphaBeta()
		aS, _ := sh.AlphaBeta()
		t.Logf("stale=%v: top-1 agreement with the reference %.4f; alpha reference %.4f sharded %.4f", stale, agree, aR, aS)
		if agree < shardedAgreementMin {
			t.Errorf("stale=%v: top-1 agreement with the reference %.4f < %.2f", stale, agree, shardedAgreementMin)
		}
	}
}

// TestShardedVariants: single-observation-type variants must run under
// sharding — FollowingOnly exercises a nil tweet plan, TweetingOnly a
// nil edge plan (and no boundary machinery at all).
func TestShardedVariants(t *testing.T) {
	d := testWorld(t, 1)
	for _, v := range []Variant{FollowingOnly, TweetingOnly} {
		m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Shards: 3, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if m.Iterations() != 3 {
			t.Errorf("%v: ran %d iterations", v, m.Iterations())
		}
	}
	// Edges-only corpus under the Full variant (regression analogue of
	// TestParallelEdgesOnlyCorpus).
	c := d.Corpus
	c.Tweets = nil
	if _, err := Fit(&c, Config{Seed: 3, Iterations: 3, Shards: 3, StaleBoundary: true}); err != nil {
		t.Fatal(err)
	}
}

// TestShardsValidation: negative shard counts are rejected; zero means
// single-chain.
func TestShardsValidation(t *testing.T) {
	d := testWorld(t, 1)
	if _, err := Fit(&d.Corpus, Config{Iterations: 1, Shards: -2}); err == nil {
		t.Error("negative Shards accepted")
	}
	m, err := Fit(&d.Corpus, Config{Iterations: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Shards != 1 {
		t.Errorf("defaulted Shards = %d", m.Config().Shards)
	}
}
