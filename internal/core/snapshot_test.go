package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/synth"
)

// requireReadEquality asserts the loaded model reproduces every readout of
// the fitted model bit for bit: full profiles, venue probabilities, MAP
// and sampled edge explanations, tweet explanations, noise rates, and the
// refined (α, β).
func requireReadEquality(t *testing.T, fitted, loaded *Model, c *dataset.Corpus) {
	t.Helper()
	requireProfileEquality(t, fitted, loaded, c)
	for v := 0; v < c.Venues.Len(); v++ {
		for _, l := range c.Venues.Venue(gazetteer.VenueID(v)).Locations {
			a := fitted.VenueProbability(l, gazetteer.VenueID(v))
			b := loaded.VenueProbability(l, gazetteer.VenueID(v))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("psi(%d, %d): %v vs %v", l, v, a, b)
			}
		}
	}
	for s := range c.Edges {
		wantExp, wantOK := fitted.MAPExplainEdge(s)
		gotExp, gotOK := loaded.MAPExplainEdge(s)
		if wantOK != gotOK || wantExp != gotExp {
			t.Fatalf("edge %d MAP explanation: (%v, %v) vs (%v, %v)", s, wantExp, wantOK, gotExp, gotOK)
		}
		wantExp, wantOK = fitted.ExplainEdge(s)
		gotExp, gotOK = loaded.ExplainEdge(s)
		if wantOK != gotOK || wantExp != gotExp {
			t.Fatalf("edge %d sampled explanation: (%v, %v) vs (%v, %v)", s, wantExp, wantOK, gotExp, gotOK)
		}
	}
	for k := range c.Tweets {
		want, wantOK := fitted.ExplainTweet(k)
		got, gotOK := loaded.ExplainTweet(k)
		if wantOK != gotOK || want != got {
			t.Fatalf("tweet %d explanation: (%v, %v) vs (%v, %v)", k, want, wantOK, got, gotOK)
		}
	}
	ea, ta := fitted.NoiseStats()
	eb, tb := loaded.NoiseStats()
	if ea != eb || ta != tb {
		t.Fatalf("noise stats: (%v, %v) vs (%v, %v)", ea, ta, eb, tb)
	}
	aa, ab := fitted.AlphaBeta()
	ba, bb := loaded.AlphaBeta()
	if math.Float64bits(aa) != math.Float64bits(ba) || math.Float64bits(ab) != math.Float64bits(bb) {
		t.Fatalf("alpha/beta: (%v, %v) vs (%v, %v)", aa, ab, ba, bb)
	}
	if fitted.Iterations() != loaded.Iterations() {
		t.Fatalf("iterations: %d vs %d", fitted.Iterations(), loaded.Iterations())
	}
}

// requireProfileEquality asserts the profile readouts — the fit
// fingerprint and every user's full profile — are bit-identical.
func requireProfileEquality(t *testing.T, fitted, loaded *Model, c *dataset.Corpus) {
	t.Helper()
	if a, b := fitFingerprint(fitted), fitFingerprint(loaded); a != b {
		t.Fatalf("profile fingerprint diverged: fitted %#x loaded %#x", a, b)
	}
	for u := range c.Users {
		want := fitted.Profile(dataset.UserID(u))
		got := loaded.Profile(dataset.UserID(u))
		if len(want) != len(got) {
			t.Fatalf("user %d: profile length %d vs %d", u, len(want), len(got))
		}
		for i := range want {
			if want[i].City != got[i].City || math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
				t.Fatalf("user %d entry %d: %v vs %v", u, i, want[i], got[i])
			}
		}
	}
}

// retiredSlots are the config-section values of the retired
// blocked-kernel, distance-table, ψ̂-store and fused-draw knobs.
type retiredSlots struct {
	blocked         bool
	dist, psi, draw int64
}

// defaultSlots is what writers store there: each knob's old default.
var defaultSlots = retiredSlots{blockedSlot, distTableSlotOn, psiStoreSlot, fusedDrawSlot}

// retiredSlotsOffset is the byte offset of the blocked-kernel slot in a
// whole-model snapshot: the header (magic, version, flags, shard index,
// shard count), the world fingerprint, then the config fields before
// the slots — Seed, Variant, Iterations, Workers, RhoF, RhoT,
// NoiseBurnIn, Alpha, Beta, Tau, GammaBoost, Delta, MaxCandidates,
// MaxVenueSenses (14×8 bytes), GibbsEM (1), EMInterval, EMPairSample
// (2×8). The DistTable, PsiStore and FusedDraw slots follow at +1, +9
// and +17.
const retiredSlotsOffset = len(snapshotMagic) + 4*4 + int(dataset.NumFingerprintSections)*sha256.Size +
	14*8 + 1 + 2*8

// readRetiredSlots decodes the retired knobs' slots of a snapshot.
func readRetiredSlots(snap []byte) retiredSlots {
	off, le := retiredSlotsOffset, binary.LittleEndian
	return retiredSlots{
		blocked: snap[off] != 0,
		dist:    int64(le.Uint64(snap[off+1:])),
		psi:     int64(le.Uint64(snap[off+9:])),
		draw:    int64(le.Uint64(snap[off+17:])),
	}
}

// withRetiredSlots returns a copy of the whole-model snapshot snap with
// the retired knobs' slots set to v and the trailer checksum recomputed
// — what a writer with the knobs at those settings produced (DistTable
// 2 = exact d^α, PsiStore 2 = city-major maps, FusedDraw 2 = Categorical
// draws). It fails the test unless snap holds the default values there,
// so a moved slot cannot go unnoticed.
func withRetiredSlots(t *testing.T, snap []byte, v retiredSlots) []byte {
	t.Helper()
	if got := readRetiredSlots(snap); got != defaultSlots {
		t.Fatalf("retired config slots at byte %d hold %+v, want %+v", retiredSlotsOffset, got, defaultSlots)
	}
	off, le := retiredSlotsOffset, binary.LittleEndian
	out := bytes.Clone(snap)
	out[off] = 0
	if v.blocked {
		out[off] = 1
	}
	le.PutUint64(out[off+1:], uint64(v.dist))
	le.PutUint64(out[off+9:], uint64(v.psi))
	le.PutUint64(out[off+17:], uint64(v.draw))
	payload := out[:len(out)-sha256.Size]
	sum := sha256.Sum256(payload)
	copy(out[len(payload):], sum[:])
	return out
}

// withPsiSlot is withRetiredSlots with only the PsiStore slot moved.
func withPsiSlot(t *testing.T, snap []byte, v int64) []byte {
	t.Helper()
	slots := defaultSlots
	slots.psi = v
	return withRetiredSlots(t, snap, slots)
}

// TestSnapshotRoundTripMatrix wires the snapshot round trip into the
// determinism matrix. Under every goldenMatrix worker count, the fitted
// model's snapshot is loaded once per combination of the retired
// DistTable, PsiStore and FusedDraw slots — every file a writer of
// those knobs could have produced from the same fitted state. The
// decoder ignores the PsiStore and FusedDraw slots, so each load must
// reproduce every readout bit for bit. An exact-d^α slot loads with no
// distance table (MAPExplainEdge then evaluates d^α exactly, as the
// exact-path model did), so those cells check the profiles and the
// missing table instead. Re-encoding must write the exact-d^α slot back
// and nothing else.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	dists := []struct {
		name string
		slot int64
	}{{"table", distTableSlotOn}, {"exact", distTableSlotExact}}
	psis := []struct {
		name string
		slot int64
	}{{"psi=map", 2}, {goldenPsiCell, psiStoreSlot}}
	draws := []struct {
		name string
		slot int64
	}{{"draw=scan", 2}, {goldenDrawCell, fusedDrawSlot}}
	for _, g := range goldenMatrix {
		if testing.Short() && g.workers != 1 {
			continue // -short: default worker count only
		}
		cfg := goldenCfg()
		cfg.Workers = g.workers
		m, err := Fit(&d.Corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		workers := fmt.Sprintf("workers=%d", g.workers)
		for _, dist := range dists {
			for _, psi := range psis {
				for _, draw := range draws {
					t.Run(workers+"/"+dist.name+"/"+psi.name+"/"+draw.name, func(t *testing.T) {
						snap := withRetiredSlots(t, buf.Bytes(), retiredSlots{dist: dist.slot, psi: psi.slot, draw: draw.slot})
						loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(snap))
						if err != nil {
							t.Fatal(err)
						}
						if dist.slot == distTableSlotOn {
							requireReadEquality(t, m, loaded, &d.Corpus)
						} else {
							requireProfileEquality(t, m, loaded, &d.Corpus)
							if loaded.dt != nil {
								t.Fatal("a snapshot with the exact-d^α slot loaded with a distance table")
							}
						}
						var re bytes.Buffer
						if err := loaded.EncodeSnapshot(&re); err != nil {
							t.Fatal(err)
						}
						want := defaultSlots
						want.dist = dist.slot
						if got := readRetiredSlots(re.Bytes()); got != want {
							t.Fatalf("re-encoded retired slots %+v, want %+v", got, want)
						}
						if !bytes.Equal(re.Bytes(), withRetiredSlots(t, buf.Bytes(), want)) {
							t.Fatal("loaded model re-encodes to different bytes")
						}
					})
				}
			}
		}
	}
}

// TestSnapshotRetiredKnobSlots loads a golden snapshot whose retired
// slots say blocked kernel, exact d^α, city-major counts and
// Categorical draws — what a fit with all four off paths wrote. It
// must load with the same profiles and no distance table, so
// MAPExplainEdge evaluates d^α exactly as the exact-path model did;
// re-encoding must write the exact-d^α slot back and nothing else.
func TestSnapshotRetiredKnobSlots(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := withRetiredSlots(t, buf.Bytes(), retiredSlots{blocked: true, dist: 2, psi: 2, draw: 2})
	loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	requireProfileEquality(t, m, loaded, &d.Corpus)
	if loaded.dt != nil {
		t.Fatal("a snapshot with the exact-d^α slot loaded with a distance table")
	}
	e := d.Corpus.Edges[0]
	xi, yi := loaded.ex[0], loaded.ey[0]
	a, b := loaded.cands.cand[e.From][xi], loaded.cands.cand[e.To][yi]
	if got, want := loaded.pow(a, b), loaded.dc.powDist(a, b, loaded.alpha); got != want {
		t.Errorf("loaded pow(%d, %d) = %v, exact d^alpha = %v", a, b, got, want)
	}
	var re bytes.Buffer
	if err := loaded.EncodeSnapshot(&re); err != nil {
		t.Fatal(err)
	}
	want := defaultSlots
	want.dist = distTableSlotExact
	if got := readRetiredSlots(re.Bytes()); got != want {
		t.Errorf("re-encoded retired slots %+v, want %+v", got, want)
	}
}

// Pinned SHA-256 digests of the golden fit's snapshot, captured with the
// writers of the retired knobs. goldenSnapshotTableSHA is what the
// default writer produced, and the only writer left must reproduce it.
// goldenSnapshotSHA is the exact-d^α writer's (DistTable slot 2) and
// goldenSnapshotMapSHA the exact-d^α, city-major writer's (DistTable
// and PsiStore slots 2): the same fitted state — the chains were
// bit-identical on the golden world — with different config slots and
// trailers.
const (
	goldenSnapshotTableSHA = "6820d2ea7b9e19b7b2033d0c69cbde1fb4c2f14282fea30a5e09909ce75f5b03"
	goldenSnapshotSHA      = "fca21a3fc9f6a8cd85c0287473c80602dad6216b2b740b29f88bb9c41d057cf7"
	goldenSnapshotMapSHA   = "f99fe20b0c1c2baf6082ce77998f60f90d3cbcb85d7415eb3a9e7cec3eff6dd4"
)

// TestSnapshotEncodingDeterministic: the same fitted model must serialize
// to identical bytes, and those bytes must match the pinned digest (the
// venue triples are emitted sorted, not in internal iteration order).
// The same bytes with the retired slots of the exact-d^α and city-major
// writers must match their pinned digests too and load with the same
// profiles; a city-major file with the default DistTable slot must
// reproduce every readout.
func TestSnapshotEncodingDeterministic(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := m.EncodeSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.EncodeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same model differ")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a.Bytes())); got != goldenSnapshotTableSHA {
		t.Errorf("snapshot SHA-256 %s differs from pinned %s", got, goldenSnapshotTableSHA)
	}

	for _, legacy := range []struct {
		name  string
		slots retiredSlots
		sha   string
	}{
		{"exact", retiredSlots{dist: distTableSlotExact, psi: psiStoreSlot, draw: fusedDrawSlot}, goldenSnapshotSHA},
		{"exact city-major", retiredSlots{dist: distTableSlotExact, psi: 2, draw: fusedDrawSlot}, goldenSnapshotMapSHA},
	} {
		snap := withRetiredSlots(t, a.Bytes(), legacy.slots)
		if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != legacy.sha {
			t.Errorf("%s snapshot SHA-256 %s differs from pinned %s", legacy.name, got, legacy.sha)
		}
		loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		requireProfileEquality(t, m, loaded, &d.Corpus)
	}

	loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withPsiSlot(t, a.Bytes(), 2)))
	if err != nil {
		t.Fatal(err)
	}
	requireReadEquality(t, m, loaded, &d.Corpus)
}

// TestSnapshotSaveLoadFile exercises the atomic file path.
func TestSnapshotSaveLoadFile(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.mlp"
	if err := m.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&d.Corpus, path)
	if err != nil {
		t.Fatal(err)
	}
	requireReadEquality(t, m, loaded, &d.Corpus)
}

// TestSnapshotRejectsMismatchedWorld: loading against a world that differs
// in any fingerprinted section fails with an error naming the section.
func TestSnapshotRejectsMismatchedWorld(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A different gazetteer entirely.
	other, err := synth.Generate(synth.Config{Seed: 12, NumUsers: 120, NumLocations: 61})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(&other.Corpus, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against a different world succeeded")
	} else if !strings.Contains(err.Error(), "different world") {
		t.Errorf("mismatch error %q does not name the cause", err)
	}

	// Same gazetteer, one edge removed: the edge section must catch it.
	// (DecodeSnapshot only sees the corpus, so truth stays untouched.)
	trimmed := d.Corpus
	trimmed.Edges = trimmed.Edges[:len(trimmed.Edges)-1]
	if _, err := DecodeSnapshot(&trimmed, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against an edited edge list succeeded")
	} else if !strings.Contains(err.Error(), "following relationships") {
		t.Errorf("edge mismatch error %q does not name the section", err)
	}

	// One user's home label flipped.
	relabeled := d.Corpus
	relabeled.Users = append([]dataset.User(nil), d.Corpus.Users...)
	for i := range relabeled.Users {
		if h := relabeled.Users[i].Home; h != dataset.NoCity {
			relabeled.Users[i].Home = (h + 1) % gazetteer.CityID(d.Corpus.Gaz.Len())
			break
		}
	}
	if _, err := DecodeSnapshot(&relabeled, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against edited user labels succeeded")
	} else if !strings.Contains(err.Error(), "user labels") {
		t.Errorf("label mismatch error %q does not name the section", err)
	}
}

// TestSnapshotRejectsCorruption: truncation and bit flips fail the
// checksum (or magic) before any state is rebuilt.
func TestSnapshotRejectsCorruption(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 40, 4} {
		if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", cut)
		}
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(flipped)); err == nil {
		t.Error("bit-flipped snapshot loaded successfully")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption error %q does not mention the checksum", err)
	}

	garbage := []byte("definitely not a snapshot, just some text")
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(garbage)); err == nil {
		t.Error("garbage loaded successfully")
	}
}

// TestSnapshotVariants covers MLP_U and MLP_C: only the consumed
// observation type's latent state travels, and loads reproduce readouts.
func TestSnapshotVariants(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 21, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{FollowingOnly, TweetingOnly} {
		m, err := Fit(&d.Corpus, Config{Seed: 5, Iterations: 3, Workers: 1, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		requireReadEquality(t, m, loaded, &d.Corpus)
	}
}

// TestShardedSnapshotRoundTrip: a model fitted with Shards=4 saved as a
// sharded directory and loaded back (via the LoadSnapshot directory
// route) must reproduce every readout bit for bit, under both boundary
// protocols.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		stale bool
	}{
		{"sync/" + goldenPsiCell, false},
		{"stale/" + goldenPsiCell, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Shards = 4
			cfg.StaleBoundary = mode.stale
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir() + "/snap"
			if err := m.SaveShardedSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(&d.Corpus, dir)
			if err != nil {
				t.Fatal(err)
			}
			requireReadEquality(t, m, loaded, &d.Corpus)
		})
	}
}

// TestShardedSnapshotRejectsTampering: a sharded directory must refuse
// to load when the manifest hash disagrees, a slice file is missing, a
// byte is flipped, or a slice file is dropped into the whole-model
// loader.
func TestShardedSnapshotRejectsTampering(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 150, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 4, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snap"
	if err := m.SaveShardedSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err != nil {
		t.Fatalf("pristine sharded snapshot failed to load: %v", err)
	}

	shard1 := dir + "/shard-001.mlpsnap"
	raw, err := os.ReadFile(shard1)
	if err != nil {
		t.Fatal(err)
	}

	// A slice file is not a whole-model snapshot.
	if _, err := LoadSnapshot(&d.Corpus, shard1); err == nil {
		t.Error("slice file loaded as a whole-model snapshot")
	} else if !strings.Contains(err.Error(), "directory") {
		t.Errorf("slice-file error %q does not point at the directory", err)
	}

	// Flip one byte: the manifest hash catches it before decoding.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(shard1, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("bit-flipped shard loaded successfully")
	} else if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("corruption error %q does not mention the manifest", err)
	}

	// Remove the slice file entirely.
	if err := os.Remove(shard1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("snapshot with a missing shard loaded successfully")
	}
	if err := os.WriteFile(shard1, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Manifest shard count that disagrees with the files.
	manifest := dir + "/manifest.json"
	if err := os.WriteFile(manifest, []byte(`{"version":1,"shard_count":2,"files":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("inconsistent manifest loaded successfully")
	}

	// Unsupported manifest version.
	if err := os.WriteFile(manifest, []byte(`{"version":9,"shard_count":3,"files":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("future-versioned manifest loaded successfully")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("version error %q does not mention the version", err)
	}
}

// TestLoadSnapshotShard: one slice of a sharded snapshot loaded alone
// (the serving tier's partial-backend path) answers every ShardOf-owned
// user's profile bit-identically to the full model, SnapshotShardCount
// reports the manifest's count without decoding slices, and out-of-range
// shard indices are refused.
func TestLoadSnapshotShard(t *testing.T) {
	const shards = 3
	d, err := synth.Generate(synth.Config{Seed: 13, NumUsers: 120, NumLocations: 50})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 7, Iterations: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snap"
	if err := m.SaveShardedSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	if n, err := SnapshotShardCount(dir); err != nil || n != shards {
		t.Fatalf("SnapshotShardCount = %d, %v; want %d", n, err, shards)
	}

	for s := 0; s < shards; s++ {
		part, err := LoadSnapshotShard(&d.Corpus, dir, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		owned := 0
		for u := range d.Corpus.Users {
			if dataset.ShardOf(dataset.UserID(u), shards) != s {
				continue
			}
			owned++
			want := m.Profile(dataset.UserID(u))
			got := part.Profile(dataset.UserID(u))
			if len(want) != len(got) {
				t.Fatalf("shard %d user %d: profile length %d vs %d", s, u, len(want), len(got))
			}
			for i := range want {
				if want[i].City != got[i].City || math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
					t.Fatalf("shard %d user %d entry %d: %v vs %v", s, u, i, want[i], got[i])
				}
			}
		}
		if owned == 0 {
			t.Errorf("shard %d owns no users — placement fixture too small", s)
		}
	}

	if _, err := LoadSnapshotShard(&d.Corpus, dir, -1); err == nil {
		t.Error("negative shard index accepted")
	}
	if _, err := LoadSnapshotShard(&d.Corpus, dir, shards); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}
