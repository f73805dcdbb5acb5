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
			if m.cfg.BlockedSampler {
				for s := range m.corpus.Edges {
					m.updateEdgeBlocked(m.seq, s)
				}
			} else {
				for s := range m.corpus.Edges {
					m.updateEdge(m.seq, s)
				}
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
	gammaI := m.cands.gamma[e.From]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]
	var pgI, pgJ []float64
	if m.fused {
		pgI, pgJ = m.pg[e.From], m.pg[e.To]
	}
	counted := !m.mu[s]

	// --- x_s (follower side, Eq. 7) ---
	xi := int(m.ex[s])
	if counted {
		phiI[xi]--
		m.phiSum[e.From]--
		if pgI != nil {
			pgI[xi]--
		}
	}
	yLoc := candJ[m.ey[s]]
	xi = m.drawEdgeSide(ctx, candI, phiI, gammaI, pgI, yLoc, counted)
	if xi < 0 {
		xi = int(m.ex[s])
	}
	m.ex[s] = uint16(xi)
	if counted {
		phiI[xi]++
		m.phiSum[e.From]++
		if pgI != nil {
			pgI[xi]++
		}
	}

	// --- y_s (friend side, Eq. 8) ---
	yi := int(m.ey[s])
	if counted {
		phiJ[yi]--
		m.phiSum[e.To]--
		if pgJ != nil {
			pgJ[yi]--
		}
	}
	xLoc := candI[xi]
	yi = m.drawEdgeSide(ctx, candJ, phiJ, gammaJ, pgJ, xLoc, counted)
	if yi < 0 {
		yi = int(m.ey[s])
	}
	m.ey[s] = uint16(yi)
	if counted {
		phiJ[yi]++
		m.phiSum[e.To]++
		if pgJ != nil {
			pgJ[yi]++
		}
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
		m.pow(candI[xi], candJ[yi])
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
		if pgI != nil {
			pgI[xi]--
			pgJ[yi]--
		}
	} else {
		// 1 → 0: the assignments start counting.
		phiI[xi]++
		phiJ[yi]++
		m.phiSum[e.From]++
		m.phiSum[e.To]++
		if pgI != nil {
			pgI[xi]++
			pgJ[yi]++
		}
	}
}

// drawEdgeSide fills one side's per-variable conditional (Eq. 7/8) and
// draws the new candidate index, or -1 when the mass is zero (the
// caller keeps the old assignment). On the fused path the fill loop
// reads the maintained ϕ+γ mirror, emits running prefix sums, and one
// uniform is inverted over them (randutil.InvertCum); on the reference
// path raw weights go through randutil.Categorical. Both accumulate the
// per-candidate expressions in index order and consume one uniform iff
// the total is positive, which keeps the two chains coupled draw for
// draw.
func (m *Model) drawEdgeSide(ctx *sweepCtx, cand []gazetteer.CityID, phi, gamma, pg []float64, opp gazetteer.CityID, counted bool) int {
	if m.fused {
		cum := ctx.arena.cumBuf(len(cand))
		m.edgeCum(cum, cand, pg, opp, counted)
		return randutil.InvertCum(ctx.rng, cum)
	}
	weights := ctx.arena.buf(len(cand))
	m.edgeWeights(weights, cand, phi, gamma, opp, counted)
	return randutil.Categorical(ctx.rng, weights)
}

// edgeWeights fills one side's per-variable conditional: the profile
// factor ϕ+γ, times the distance factor to the fixed opposite endpoint
// when the edge counts. The three loop variants compute the same
// expression; they differ only in where d^α comes from — the dense bin
// row of the opposite city (one in-row load per candidate), its sparse
// pow row above the dense ceiling, or the exact path. The candidate
// order and the single downstream Categorical draw are identical in all
// three, which is what keeps a DistTable chain coupled to the exact
// chain.
func (m *Model) edgeWeights(weights []float64, cand []gazetteer.CityID, phi, gamma []float64, opp gazetteer.CityID, counted bool) {
	if !counted {
		for c := range cand {
			weights[c] = phi[c] + gamma[c]
		}
		return
	}
	if dt := m.dt; dt != nil {
		if row := dt.row(opp); row != nil {
			pt := dt.powTab
			for c, l := range cand {
				weights[c] = (phi[c] + gamma[c]) * pt[row[l]]
			}
		} else {
			// Sparse pow row of the fixed opposite endpoint: logMiles is
			// symmetric, so prow[l] is the same value pow(l, opp) yields.
			prow := dt.powRow(opp)
			for c, l := range cand {
				weights[c] = (phi[c] + gamma[c]) * prow[l]
			}
		}
		return
	}
	for c := range cand {
		weights[c] = (phi[c] + gamma[c]) * m.dc.powDist(cand[c], opp, m.alpha)
	}
}

// edgeCum is the fused twin of edgeWeights: the same three loop
// variants, but reading the maintained ϕ+γ mirror (one load where the
// reference re-adds two) and accumulating a running total, storing the
// prefix instead of the raw weight — folding Categorical's summation
// pass into the fill. The weights are non-negative, so adding them
// unconditionally matches Categorical's positives-only sum (x+0 is x).
func (m *Model) edgeCum(cum []float64, cand []gazetteer.CityID, pg []float64, opp gazetteer.CityID, counted bool) {
	// Pin the parallel slices to the candidate length so the loops run
	// bounds-check-free (pg/cum are allocated per candidate set).
	pg = pg[:len(cand)]
	cum = cum[:len(cand)]
	var total float64
	if !counted {
		for c := range cand {
			total += pg[c]
			cum[c] = total
		}
		return
	}
	if dt := m.dt; dt != nil {
		if row := dt.row(opp); row != nil {
			pt := dt.powTab
			for c, l := range cand {
				total += pg[c] * pt[row[l]]
				cum[c] = total
			}
		} else {
			prow := dt.powRow(opp)
			for c, l := range cand {
				total += pg[c] * prow[l]
				cum[c] = total
			}
		}
		return
	}
	for c := range cand {
		total += pg[c] * m.dc.powDist(cand[c], opp, m.alpha)
		cum[c] = total
	}
}

// updateEdgeBlocked jointly resamples (µ_s, x_s, y_s) from their exact
// joint conditional — the blocked-sampler ablation. The model is
// unchanged; only the inference move differs. With the distance table on
// the pruned factored kernel below takes over.
func (m *Model) updateEdgeBlocked(ctx *sweepCtx, s int) {
	if m.dt != nil {
		m.updateEdgeBlockedTable(ctx, s)
		return
	}
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	gammaI := m.cands.gamma[e.From]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]

	// Remove the current assignments from the counts when they count.
	if !m.mu[s] {
		phiI[m.ex[s]]--
		phiJ[m.ey[s]]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		if m.pg != nil {
			m.pg[e.From][m.ex[s]]--
			m.pg[e.To][m.ey[s]]--
		}
	}

	nI, nJ := len(candI), len(candJ)
	wx, wy, pair := ctx.arena.bufBlocked(nI, nJ)
	for c := range candI {
		wx[c] = phiI[c] + gammaI[c]
	}
	for c := range candJ {
		wy[c] = phiJ[c] + gammaJ[c]
	}
	denI := m.phiSum[e.From] + m.cands.gammaSum[e.From]
	denJ := m.phiSum[e.To] + m.cands.gammaSum[e.To]

	// W1: noise branch weight (the θ̂ marginals integrate out to 1).
	// W0: location-based branch marginalized over all candidate pairs.
	// During burn-in the noise branch is held off.
	w1 := m.cfg.RhoF * m.fr
	if m.curIter <= m.cfg.NoiseBurnIn {
		w1 = 0
	}
	// The fused path stores the running prefix sums in pair[] instead of
	// the raw products; the additions are the same terms in the same
	// row-major order, so pairSum — and the w0 Bernoulli below — is
	// bit-identical across the knob.
	var pairSum float64
	if m.fused {
		for i := 0; i < nI; i++ {
			for j := 0; j < nJ; j++ {
				pairSum += wx[i] * wy[j] * m.dc.powDist(candI[i], candJ[j], m.alpha)
				pair[i*nJ+j] = pairSum
			}
		}
	} else {
		for i := 0; i < nI; i++ {
			for j := 0; j < nJ; j++ {
				w := wx[i] * wy[j] * m.dc.powDist(candI[i], candJ[j], m.alpha)
				pair[i*nJ+j] = w
				pairSum += w
			}
		}
	}
	w0 := (1 - m.cfg.RhoF) * m.beta * pairSum / (denI * denJ)

	if randutil.Bernoulli(ctx.rng, w1/(w0+w1)) {
		// Noise: keep phantom assignments drawn from the profiles alone;
		// they do not count.
		m.mu[s] = true
		xi, yi := m.drawBlockedNoise(ctx, wx, wy)
		if xi < 0 {
			xi = int(m.ex[s])
		}
		if yi < 0 {
			yi = int(m.ey[s])
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
		return
	}
	m.mu[s] = false
	var p int
	if m.fused {
		p = randutil.InvertCum(ctx.rng, pair)
	} else {
		p = randutil.Categorical(ctx.rng, pair)
	}
	if p < 0 {
		p = int(m.ex[s])*nJ + int(m.ey[s])
	}
	m.ex[s], m.ey[s] = uint16(p/nJ), uint16(p%nJ)
	phiI[m.ex[s]]++
	phiJ[m.ey[s]]++
	m.phiSum[e.From]++
	m.phiSum[e.To]++
	if m.pg != nil {
		m.pg[e.From][m.ex[s]]++
		m.pg[e.To][m.ey[s]]++
	}
}

// drawBlockedNoise draws both endpoints' phantom assignments on the
// blocked kernels' noise branch. The raw wx/wy weights stay live (the
// joint pass consumed them as factors), so the fused path runs
// randutil.FusedCategorical — one prefix pass plus a search per side,
// sharing the arena's prefix buffer — instead of Categorical's
// sum-and-scan. Draw semantics and RNG consumption are identical.
func (m *Model) drawBlockedNoise(ctx *sweepCtx, wx, wy []float64) (xi, yi int) {
	if m.fused {
		cum := ctx.arena.cumBuf(max(len(wx), len(wy)))
		xi = randutil.FusedCategorical(ctx.rng, wx, cum)
		yi = randutil.FusedCategorical(ctx.rng, wy, cum)
		return xi, yi
	}
	xi = randutil.Categorical(ctx.rng, wx)
	yi = randutil.Categorical(ctx.rng, wy)
	return xi, yi
}

// updateEdgeBlockedTable is the pruned factored form of the blocked
// kernel, active when the distance table is on. The pair weight
// factorizes as
//
//	W[i][j] = (ϕ_I[i]+γ_I[i]) · (ϕ_J[j]+γ_J[j]) · D[i][j]
//
// with D the quantized d^α matrix, static within an α-epoch. Splitting
// the friend-side factor into its static prior γ_J and its sparse
// profile counts ϕ_J gives per-row sums
//
//	S[i] = Σ_j (ϕ_J[j]+γ_J[j])·D[i][j] = gRow[i] + Σ_{j∈supp ϕ_J} ϕ_J[j]·D[i][j]
//
// where gRow is the edge's cached static row sum (edgeCache). The sweep
// therefore pays O(nI + nJ + nI·kJ) per edge — kJ = |supp ϕ_J|, which
// sampling concentrates onto a handful of candidates — instead of the
// exact kernel's O(nI·nJ) haversine+pow evaluations.
//
// Sampling stays draw-for-draw aligned with the exact kernel: the same
// Bernoulli, and a single uniform inverted over the rows' cumulative
// masses and then within the chosen row — the row-major order the exact
// kernel's flat Categorical over pair[] scans. Only the weight values
// differ, by quantization, so a DistTable chain shadows the exact one.
func (m *Model) updateEdgeBlockedTable(ctx *sweepCtx, s int) {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	gammaI := m.cands.gamma[e.From]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]

	if !m.mu[s] {
		phiI[m.ex[s]]--
		phiJ[m.ey[s]]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		if m.pg != nil {
			m.pg[e.From][m.ex[s]]--
			m.pg[e.To][m.ey[s]]--
		}
	}

	nI, nJ := len(candI), len(candJ)
	ec := m.edgeCacheFor(s, candI, candJ, gammaJ)
	wx, wy, rowMass, supJ := ctx.arena.bufBlockedTable(nI, nJ)
	for c := range candI {
		wx[c] = phiI[c] + gammaI[c]
	}
	kJ := 0
	for j := range candJ {
		wy[j] = phiJ[j] + gammaJ[j]
		if phiJ[j] > 0 {
			supJ[kJ] = int32(j)
			kJ++
		}
	}
	sup := supJ[:kJ]

	pt := m.dt.powTab
	var pairSum float64
	var rowCum []float64
	if m.fused {
		// Fused: beside each raw row mass (still needed for the
		// within-row residual below), store the running pairSum — the
		// row prefix the inversion binary-searches instead of scanning.
		rowCum = ctx.arena.rowCumBuf(nI)
		for i := 0; i < nI; i++ {
			si := ec.gRow[i]
			if row := m.dt.row(candI[i]); row != nil {
				for _, j := range sup {
					si += phiJ[j] * pt[row[candJ[j]]]
				}
			} else {
				prow := m.dt.powRow(candI[i])
				for _, j := range sup {
					si += phiJ[j] * prow[candJ[j]]
				}
			}
			rm := wx[i] * si
			rowMass[i] = rm
			pairSum += rm
			rowCum[i] = pairSum
		}
	} else {
		for i := 0; i < nI; i++ {
			si := ec.gRow[i]
			if row := m.dt.row(candI[i]); row != nil {
				for _, j := range sup {
					si += phiJ[j] * pt[row[candJ[j]]]
				}
			} else {
				prow := m.dt.powRow(candI[i])
				for _, j := range sup {
					si += phiJ[j] * prow[candJ[j]]
				}
			}
			rm := wx[i] * si
			rowMass[i] = rm
			pairSum += rm
		}
	}
	denI := m.phiSum[e.From] + m.cands.gammaSum[e.From]
	denJ := m.phiSum[e.To] + m.cands.gammaSum[e.To]

	w1 := m.cfg.RhoF * m.fr
	if m.curIter <= m.cfg.NoiseBurnIn {
		w1 = 0
	}
	w0 := (1 - m.cfg.RhoF) * m.beta * pairSum / (denI * denJ)

	if randutil.Bernoulli(ctx.rng, w1/(w0+w1)) {
		m.mu[s] = true
		xi, yi := m.drawBlockedNoise(ctx, wx, wy)
		if xi < 0 {
			xi = int(m.ex[s])
		}
		if yi < 0 {
			yi = int(m.ey[s])
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
		return
	}
	m.mu[s] = false
	if pairSum > 0 {
		// Row-major hierarchical inversion of one uniform: rows by their
		// cumulative masses, then columns within the chosen row. Slack
		// from float rounding falls to the last row/column, mirroring
		// randutil.Categorical's fallback. The fused path picks the row
		// with randutil.SearchCum over the stored prefix sums; the
		// reference path scans, accumulating the identical prefixes, so
		// both select the same row and leave the same residual.
		u := ctx.rng.Float64() * pairSum
		xi := nI - 1
		if m.fused {
			if i := randutil.SearchCum(rowCum, u); i >= 0 {
				xi = i
			}
			u -= rowCum[xi] - rowMass[xi] // residual uniform within row xi
		} else {
			var acc float64
			for i := 0; i < nI; i++ {
				acc += rowMass[i]
				if u < acc {
					xi = i
					break
				}
			}
			u -= acc - rowMass[xi] // residual uniform within row xi
		}
		yi := nJ - 1
		wxi := wx[xi]
		row := m.dt.row(candI[xi])
		prow := m.dt.powRow(candI[xi])
		// The within-row column pass is already fused in both modes: one
		// loop computing each product, accumulating, and early-exiting
		// at the inversion point.
		acc := 0.0
		for j := 0; j < nJ; j++ {
			var d float64
			if row != nil {
				d = pt[row[candJ[j]]]
			} else {
				d = prow[candJ[j]]
			}
			acc += wxi * wy[j] * d
			if u < acc {
				yi = j
				break
			}
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
	}
	phiI[m.ex[s]]++
	phiJ[m.ey[s]]++
	m.phiSum[e.From]++
	m.phiSum[e.To]++
	if m.pg != nil {
		m.pg[e.From][m.ex[s]]++
		m.pg[e.To][m.ey[s]]++
	}
}

// updateTweet resamples z_k (Eq. 9) and ν_k (Eq. 6) for one tweeting
// relationship, with the same counts-only-while-location-based convention
// as updateEdge. The fused pipeline runs the per-author batched kernel
// (tweetbatch.go); the reference scan pipeline runs updateTweetScan. Both
// compute the same conditionals with identical RNG consumption.
func (m *Model) updateTweet(ctx *sweepCtx, k int) {
	if m.fused {
		m.updateTweetBatched(ctx, k)
		return
	}
	m.updateTweetScan(ctx, k)
}

// updateTweetScan is the reference form of the tweet kernel: raw weights
// and randutil.Categorical, with two structural savings over a literal
// reading of Eqs. 6/9:
//
//   - the per-candidate ψ̂ probes become one gather over the venue's row
//     (or direct row probes when the row is wider than the candidate
//     set — psiGatherWorthwhile; either way the same counts);
//   - the current assignment is excluded arithmetically from the one
//     city it affects (cnt−1, sum−1 — exact, the counts are
//     integer-valued floats), instead of by mutating the counts and
//     reading them back, and the store is written only when the
//     assignment actually moves.
func (m *Model) updateTweetScan(ctx *sweepCtx, k int) {
	t := m.corpus.Tweets[k]
	cand := m.cands.cand[t.User]
	gamma := m.cands.gamma[t.User]
	phi := m.phi[t.User]
	counted := !m.nu[k]

	// --- z_k (Eq. 9) ---
	zi := int(m.tz[k])
	exCity := cand[zi] // the excluded assignment's city, when counted
	if counted {
		phi[zi]--
		m.phiSum[t.User]--
	}
	weights := ctx.arena.buf(len(cand))
	m.tweetWeights(ctx, weights, t.Venue, cand, gamma, phi, counted, exCity)
	next := randutil.Categorical(ctx.rng, weights)
	if next < 0 {
		next = zi
	}
	m.tz[k] = uint16(next)
	if counted {
		phi[next]++
		m.phiSum[t.User]++
		if cand[next] != exCity {
			ctx.removeVenue(exCity, t.Venue)
			ctx.addVenue(cand[next], t.Venue)
		}
	}
	zi = next

	// --- ν_k (Eq. 6) ---
	if m.cfg.RhoT <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	z := cand[zi]
	var psiZ float64
	if counted {
		psiZ = ctx.psiExcl(z, t.Venue, z) // exclude self
	} else {
		psiZ = ctx.psi(z, t.Venue)
	}
	thetaZ := m.theta(t.User, zi, counted)
	p1 := m.cfg.RhoT * m.tr[t.Venue]
	p0 := (1 - m.cfg.RhoT) * thetaZ * psiZ
	noisy := randutil.Bernoulli(ctx.rng, p1/(p0+p1))
	if noisy == m.nu[k] {
		return
	}
	m.nu[k] = noisy
	if noisy {
		phi[zi]--
		m.phiSum[t.User]--
		ctx.removeVenue(z, t.Venue)
	} else {
		phi[zi]++
		m.phiSum[t.User]++
		ctx.addVenue(z, t.Venue)
	}
}

// tweetWeights fills the scan tweet kernel's per-candidate conditional
// into weights. The branches select the cheapest exact way to resolve
// each candidate's ψ̂: a one-pass row gather versus direct row probes
// (psiGatherWorthwhile), each split by overlay presence so the inner
// loops carry no per-candidate calls. The Eq. 6/9 exclusion of the
// current assignment is applied arithmetically (cnt−1/sum−1) to the one
// city it affects.
func (m *Model) tweetWeights(ctx *sweepCtx, weights []float64, v gazetteer.VenueID, cand []gazetteer.CityID, gamma, phi []float64, counted bool, exCity gazetteer.CityID) {
	switch {
	case !counted:
		for c := range cand {
			weights[c] = phi[c] + gamma[c]
		}
	case ctx.psiGatherWorthwhile(v, len(cand)):
		ctx.gatherPsi(v)
		if ctx.ovl == nil {
			gcells, ep := ctx.gcells, ctx.gepoch
			for c, l := range cand {
				var cnt float64
				if cell := &gcells[l]; cell.stamp == ep {
					cnt = cell.cnt
				}
				sum := m.venueSum[l]
				if l == exCity {
					cnt--
					sum--
				}
				weights[c] = (phi[c] + gamma[c]) * m.psiFrom(cnt, sum)
			}
		} else {
			for c, l := range cand {
				weights[c] = (phi[c] + gamma[c]) * ctx.gatheredPsiExcl(l, exCity)
			}
		}
	default:
		// Probe path, split by overlay presence so the row probes inline
		// into the loop (ctx.psiExcl's body, without the per-candidate
		// call).
		base := &m.ps.rows[v]
		if ctx.ovl == nil {
			for c, l := range cand {
				cnt := base.get(int32(l))
				sum := m.venueSum[l]
				if l == exCity {
					cnt--
					sum--
				}
				weights[c] = (phi[c] + gamma[c]) * m.psiFrom(cnt, sum)
			}
		} else {
			orow := &ctx.ovl.rows[v]
			for c, l := range cand {
				cnt := base.get(int32(l)) + orow.get(int32(l))
				sum := m.venueSum[l] + ctx.ovlSum[l]
				if l == exCity {
					cnt--
					sum--
				}
				weights[c] = (phi[c] + gamma[c]) * m.psiFrom(cnt, sum)
			}
		}
	}
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
		if m.dt != nil {
			// New α-epoch: rebuild the memoized pow table; the per-edge
			// static caches invalidate lazily on their next visit.
			m.dt.setAlpha(m.alpha)
		}
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
