package core

import (
	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/randutil"
)

// This file holds the reference sampler: a deliberately plain,
// sequential transcription of the paper's per-variable collapsed Gibbs
// updates (Sec. 4, Eqs. 5–9), kept only as the oracle the production
// sampler is tested against. It shares Fit's initialization, the
// Gibbs-EM M-step and the readout through fit's sweep seam, and
// replaces the sweep alone. Nothing here is optimized:
//
//   - d^α is evaluated exactly per candidate pair (distCalc.powDist);
//   - venue counts live in a plain map, rebuilt from the initial state;
//   - every draw removes the current assignment from the counts, fills
//     raw weights, calls randutil.Categorical, and adds the new
//     assignment back;
//   - the selectors µ and ν are plain Bernoulli draws.
//
// It consumes the model RNG in the order the production kernels do, so
// the two chains stay coupled draw for draw and can differ only where
// the production sampler's quantized d^α or reciprocal ψ̂ flips an
// inversion (equivalence_test.go bounds that; on the golden world the
// two are bit-identical, determinism_test.go).

// refSampler is the reference sweep's own venue-count state. ϕ lives in
// the model's rows, which the reference updates in place.
type refSampler struct {
	venue      map[refVenueKey]float64 // φ_{l,v}, location-based tweets only
	venueSum   []float64               // Σ_v φ_{l,v} per city
	deltaTotal float64                 // δ|V|
}

type refVenueKey struct {
	l gazetteer.CityID
	v gazetteer.VenueID
}

// fitReference fits the corpus with the reference sweep. Workers and
// Shards are ignored: the reference is sequential.
func fitReference(c *dataset.Corpus, cfg Config) (*Model, error) {
	r := &refSampler{}
	return fit(c, cfg, r.sweep)
}

// sweep is one Gibbs iteration: every edge's (x, y, µ), then every
// tweet's (z, ν), in corpus order.
func (r *refSampler) sweep(m *Model) {
	if r.venue == nil {
		r.init(m)
	}
	if m.useF {
		for s := range m.corpus.Edges {
			r.updateEdge(m, s)
		}
	}
	if m.useT {
		for k := range m.corpus.Tweets {
			r.updateTweet(m, k)
		}
	}
}

// init counts the initial location-based tweet assignments.
func (r *refSampler) init(m *Model) {
	r.venue = make(map[refVenueKey]float64)
	r.venueSum = make([]float64, m.corpus.Gaz.Len())
	r.deltaTotal = m.cfg.Delta * float64(m.corpus.Venues.Len())
	for k, t := range m.corpus.Tweets {
		if m.useT && !m.nu[k] {
			l := m.cands.cand[t.User][m.tz[k]]
			r.venue[refVenueKey{l, t.Venue}]++
			r.venueSum[l]++
		}
	}
}

// updateEdge resamples x_s (Eq. 7), y_s (Eq. 8) and µ_s (Eq. 5). The
// assignments count in ϕ only while the edge is location-based (µ = 0).
func (r *refSampler) updateEdge(m *Model, s int) {
	e := m.corpus.Edges[s]
	candI, candJ := m.cands.cand[e.From], m.cands.cand[e.To]
	counted := !m.mu[s]

	xi := r.drawEdgeSide(m, e.From, int(m.ex[s]), candJ[m.ey[s]], counted)
	m.ex[s] = uint16(xi)
	yi := r.drawEdgeSide(m, e.To, int(m.ey[s]), candI[xi], counted)
	m.ey[s] = uint16(yi)

	if m.cfg.RhoF <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	thetaX := m.theta(e.From, xi, counted)
	thetaY := m.theta(e.To, yi, counted)
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * thetaX * thetaY * m.beta *
		m.dc.powDist(candI[xi], candJ[yi], m.alpha)
	noisy := randutil.Bernoulli(m.rng, p1/(p0+p1))
	if noisy != m.mu[s] {
		d := 1.0
		if noisy {
			d = -1
		}
		m.phi[e.From][xi] += d
		m.phiSum[e.From] += d
		m.phi[e.To][yi] += d
		m.phiSum[e.To] += d
	}
	m.mu[s] = noisy
}

// drawEdgeSide resamples user u's side of an edge against the fixed
// opposite endpoint's city: weight (ϕ+γ)·d^α per candidate while the
// edge counts, the profile factor ϕ+γ alone while it is noise.
func (r *refSampler) drawEdgeSide(m *Model, u dataset.UserID, cur int, opp gazetteer.CityID, counted bool) int {
	cand, gamma, phi := m.cands.cand[u], m.cands.gamma[u], m.phi[u]
	if counted {
		phi[cur]--
		m.phiSum[u]--
	}
	w := make([]float64, len(cand))
	for c, l := range cand {
		w[c] = phi[c] + gamma[c]
		if counted {
			w[c] *= m.dc.powDist(l, opp, m.alpha)
		}
	}
	next := randutil.Categorical(m.rng, w)
	if next < 0 {
		next = cur
	}
	if counted {
		phi[next]++
		m.phiSum[u]++
	}
	return next
}

// updateTweet resamples z_k (Eq. 9) and ν_k (Eq. 6). The assignment
// counts in ϕ and in the venue counts only while the tweet is
// location-based (ν = 0).
func (r *refSampler) updateTweet(m *Model, k int) {
	t := m.corpus.Tweets[k]
	cand, gamma, phi := m.cands.cand[t.User], m.cands.gamma[t.User], m.phi[t.User]
	counted := !m.nu[k]

	zi := int(m.tz[k])
	if counted {
		r.shiftTweet(m, t, zi, -1)
	}
	w := make([]float64, len(cand))
	for c, l := range cand {
		w[c] = phi[c] + gamma[c]
		if counted {
			w[c] *= r.psi(m, l, t.Venue)
		}
	}
	next := randutil.Categorical(m.rng, w)
	if next < 0 {
		next = zi
	}
	m.tz[k] = uint16(next)
	if counted {
		r.shiftTweet(m, t, next, 1)
	}
	zi = next

	if m.cfg.RhoT <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	thetaZ := m.theta(t.User, zi, counted)
	if counted {
		r.shiftTweet(m, t, zi, -1) // ψ̂ excludes the tweet itself
	}
	psiZ := r.psi(m, cand[zi], t.Venue)
	p1 := m.cfg.RhoT * m.tr[t.Venue]
	p0 := (1 - m.cfg.RhoT) * thetaZ * psiZ
	noisy := randutil.Bernoulli(m.rng, p1/(p0+p1))
	if !noisy {
		r.shiftTweet(m, t, zi, 1)
	}
	m.nu[k] = noisy
}

// shiftTweet moves tweet t's assignment to candidate zi in or out of
// the counts: ϕ, the reference's venue counts, and — so post-fit tweet
// readouts (VenueProbability, ExplainTweet) see the same counts — the
// model's venue store, which the reference never reads.
func (r *refSampler) shiftTweet(m *Model, t dataset.TweetRel, zi int, d float64) {
	l := m.cands.cand[t.User][zi]
	m.phi[t.User][zi] += d
	m.phiSum[t.User] += d
	r.venue[refVenueKey{l, t.Venue}] += d
	r.venueSum[l] += d
	if d > 0 {
		m.addVenue(l, t.Venue)
	} else {
		m.removeVenue(l, t.Venue)
	}
}

// psi is the collapsed venue probability ψ̂_l(v) = (φ_{l,v}+δ)/(Σ_v φ_{l,v}+δ|V|).
func (r *refSampler) psi(m *Model, l gazetteer.CityID, v gazetteer.VenueID) float64 {
	return (r.venue[refVenueKey{l, v}] + m.cfg.Delta) / (r.venueSum[l] + r.deltaTotal)
}
