package core

import (
	"math"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/powerlaw"
	"mlprofile/internal/randutil"
	"mlprofile/internal/stats"
)

// sweep performs one Gibbs iteration: every following relationship's
// (x, y, µ) and every tweeting relationship's (z, ν) is resampled from its
// conditional posterior (Eqs. 5–9). Workers=1 runs the paper's exact
// sequential chain on the model RNG; Workers>1 fans the sweep out over
// user-disjoint shards (sweepParallel, see parallel.go). Shards>1 takes
// precedence over Workers and runs the sharded sweep with its boundary
// protocols (sweepSharded, see shard.go).
func (m *Model) sweep() {
	if m.cfg.Shards > 1 {
		m.sweepSharded()
		return
	}
	if m.cfg.Workers > 1 {
		m.sweepParallel()
		return
	}
	if m.useF {
		m.phase("edge", func() {
			for s := range m.corpus.Edges {
				m.updateEdge(m.seq, s)
			}
		})
	}
	if m.useT {
		m.phase("tweet", func() {
			for k := range m.corpus.Tweets {
				m.updateTweet(m.seq, k)
			}
		})
	}
}

// updateEdge resamples x_s (Eq. 7), y_s (Eq. 8) and µ_s (Eq. 5) for one
// following relationship, in the paper's per-variable fashion.
//
// Convention (see DESIGN.md): location assignments contribute to the
// profile counts ϕ only while the relationship is location-based (µ=0).
// A noise-flagged relationship keeps phantom assignments — refreshed from
// the profile alone, per the first factor of Eqs. 7–8 — but stops voting,
// which is how MLP "automatically rules out noisy relationships".
func (m *Model) updateEdge(ctx *sweepCtx, s int) {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]
	pgI, pgJ := m.pg[e.From], m.pg[e.To]
	counted := !m.mu[s]

	// --- x_s (follower side, Eq. 7) ---
	xi := int(m.ex[s])
	if counted {
		phiI[xi]--
		m.phiSum[e.From]--
		pgI[xi]--
	}
	yLoc := candJ[m.ey[s]]
	xi = m.drawEdgeSide(ctx, candI, pgI, yLoc, counted)
	if xi < 0 {
		xi = int(m.ex[s])
	}
	m.ex[s] = uint16(xi)
	if counted {
		phiI[xi]++
		m.phiSum[e.From]++
		pgI[xi]++
	}

	// --- y_s (friend side, Eq. 8) ---
	yi := int(m.ey[s])
	if counted {
		phiJ[yi]--
		m.phiSum[e.To]--
		pgJ[yi]--
	}
	xLoc := candI[xi]
	yi = m.drawEdgeSide(ctx, candJ, pgJ, xLoc, counted)
	if yi < 0 {
		yi = int(m.ey[s])
	}
	m.ey[s] = uint16(yi)
	if counted {
		phiJ[yi]++
		m.phiSum[e.To]++
		pgJ[yi]++
	}

	// --- µ_s (Eq. 5) ---
	// The profile factors θ̂_x·θ̂_y suppress the location-based branch for
	// weakly supported assignments, which drains scattered long-range
	// edges into the noise bucket. Early in sampling this would be a trap
	// (diffuse profiles make *everything* look like noise), so the mixture
	// only activates after NoiseBurnIn sweeps.
	if m.cfg.RhoF <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	thetaX := m.theta(e.From, xi, counted)
	thetaY := m.theta(e.To, yi, counted)
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * thetaX * thetaY * m.beta *
		m.dt.pow(candI[xi], candJ[yi])
	noisy := randutil.Bernoulli(ctx.rng, p1/(p0+p1))
	if noisy == m.mu[s] {
		return
	}
	m.mu[s] = noisy
	if noisy {
		// 0 → 1: the assignments stop counting.
		phiI[xi]--
		phiJ[yi]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		pgI[xi]--
		pgJ[yi]--
	} else {
		// 1 → 0: the assignments start counting.
		phiI[xi]++
		phiJ[yi]++
		m.phiSum[e.From]++
		m.phiSum[e.To]++
		pgI[xi]++
		pgJ[yi]++
	}
}

// drawEdgeSide draws one side's new candidate index from its
// per-variable conditional (Eq. 7/8), or returns -1 when the mass is
// zero (the caller keeps the old assignment). The weight of candidate c
// is the profile factor ϕ+γ (read from the maintained mirror pg), times
// the distance factor d(c, opp)^α to the fixed opposite endpoint when
// the edge counts. The fill loop emits running prefix sums and one
// uniform is inverted over them (randutil.InvertCum) — the same draw
// randutil.Categorical makes over the raw weights, in one pass instead
// of three (DESIGN.md §9). d^α comes from the dense bin row of the
// opposite city (one in-row load per candidate), or from its sparse pow
// row above the dense ceiling; logMiles is symmetric, so either row
// yields the value pow(c, opp) would.
func (m *Model) drawEdgeSide(ctx *sweepCtx, cand []gazetteer.CityID, pg []float64, opp gazetteer.CityID, counted bool) int {
	// Pin the parallel slices to the candidate length so the loops run
	// bounds-check-free (pg/cum are allocated per candidate set).
	pg = pg[:len(cand)]
	cum := ctx.cumBuf(len(cand))[:len(cand)]
	var total float64
	if !counted {
		for c := range cand {
			total += pg[c]
			cum[c] = total
		}
	} else if row := m.dt.row(opp); row != nil {
		pt := m.dt.powTab
		for c, l := range cand {
			total += pg[c] * pt[row[l]]
			cum[c] = total
		}
	} else {
		prow := m.dt.powRow(opp)
		for c, l := range cand {
			total += pg[c] * prow[l]
			cum[c] = total
		}
	}
	return randutil.InvertCum(ctx.rng, cum)
}

// Histogram binning shared by the initial data fit and the EM refits.
const (
	histMin   = 1.0
	histRatio = 1.6
	histBins  = 18
)

// initPowerLawFromData learns (α, β) before sampling begins, exactly the
// way the paper learned its −0.55/0.0045 (Sec. 4.1): bucket observed edges
// by the distance between their endpoints' *observed home labels*, divide
// by the labeled-pair distance distribution, and fit the power law.
// setAlpha/setBeta select which parameters the fit may overwrite.
func (m *Model) initPowerLawFromData(setAlpha, setBeta bool) {
	num, err := stats.NewLogHistogram(histMin, histRatio, histBins)
	if err != nil {
		return
	}
	edges := 0
	for _, e := range m.corpus.Edges {
		hf := m.corpus.Users[e.From].Home
		ht := m.corpus.Users[e.To].Home
		if hf == dataset.NoCity || ht == dataset.NoCity {
			continue
		}
		d := m.dc.miles(hf, ht)
		if d < histMin {
			d = histMin
		}
		num.Observe(d)
		edges++
	}
	if edges < 100 {
		return // too few doubly-labeled edges; keep the fallback fit
	}
	if alpha, beta, ok := m.fitLawAgainstPairs(num); ok {
		if setAlpha {
			m.alpha = alpha
		}
		if setBeta {
			m.beta = beta
		}
	}
}

// refitPowerLaw is the Gibbs-EM M-step (Sec. 4.5): re-estimate (α, β) from
// the current location-based edge assignments. Following probabilities are
// measured as the ratio of edge counts to labeled-pair counts per
// log-spaced distance bucket, then fitted in log-log space.
func (m *Model) refitPowerLaw() {
	num, err := stats.NewLogHistogram(histMin, histRatio, histBins)
	if err != nil {
		return
	}
	edges := 0
	for s, e := range m.corpus.Edges {
		if m.mu[s] {
			continue
		}
		x := m.cands.cand[e.From][m.ex[s]]
		y := m.cands.cand[e.To][m.ey[s]]
		d := m.dc.miles(x, y)
		if d < histMin {
			d = histMin
		}
		num.Observe(d)
		edges++
	}
	if edges < 100 {
		return // not enough location-based edges for a stable refit
	}
	if alpha, beta, ok := m.fitLawAgainstPairs(num); ok {
		m.alpha, m.beta = alpha, beta
		// New α-epoch: rebuild the memoized pow table; sparse pow rows
		// refresh lazily on their next walk.
		m.dt.setAlpha(m.alpha)
	}
}

// fitLawAgainstPairs divides the edge-distance histogram by the
// labeled-pair distance histogram and fits a clamped power law.
func (m *Model) fitLawAgainstPairs(num *stats.Histogram) (alpha, beta float64, ok bool) {
	den := m.labeledPairHistogram(histMin, histRatio, histBins)
	if den == nil {
		return 0, 0, false
	}
	xs, ps, err := num.Ratio(den)
	if err != nil || len(xs) < 3 {
		return 0, 0, false
	}
	// Weight buckets by their pair support so dense short-range buckets
	// dominate, as in the paper's 2.5·10¹⁰-pair measurement.
	ws := make([]float64, 0, len(xs))
	for i := 0; i < den.Bins(); i++ {
		if den.Count(i) > 0 {
			ws = append(ws, den.Count(i))
		}
	}
	law, _, err := powerlaw.Fit(xs, ps, ws)
	if err != nil {
		return 0, 0, false
	}
	// Clamp to the plausible decay regime to keep the sampler stable.
	alpha = math.Min(-0.05, math.Max(-2.0, law.Alpha))
	beta = law.Beta
	if beta <= 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return 0, 0, false
	}
	return alpha, beta, true
}

// labeledPairHistogram estimates the distance distribution of labeled user
// pairs by sampling, scaled to the full (ordered) pair count.
func (m *Model) labeledPairHistogram(min, ratio float64, bins int) *stats.Histogram {
	var labeled []int32
	for i, u := range m.corpus.Users {
		if u.Labeled() {
			labeled = append(labeled, int32(i))
		}
	}
	nL := len(labeled)
	if nL < 2 {
		return nil
	}
	h, err := stats.NewLogHistogram(min, ratio, bins)
	if err != nil {
		return nil
	}
	samples := m.cfg.EMPairSample
	totalPairs := float64(nL) * float64(nL-1)
	scale := totalPairs / float64(samples)
	for i := 0; i < samples; i++ {
		a := labeled[m.rng.Intn(nL)]
		b := labeled[m.rng.Intn(nL)]
		for b == a {
			// Resample on collision so every iteration contributes one
			// uniform ordered pair and the totalPairs/samples scale stays
			// exact (skipping would under-weight the histogram by ~1/nL).
			b = labeled[m.rng.Intn(nL)]
		}
		d := m.dc.miles(m.corpus.Users[a].Home, m.corpus.Users[b].Home)
		if d < min {
			d = min
		}
		h.Add(d, scale)
	}
	return h
}
