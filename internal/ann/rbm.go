// Package ann implements the paper's deep belief network (§5.1) from
// scratch on the stdlib: restricted Boltzmann machines trained with
// one-step contrastive divergence (CD-1) for greedy layer-wise
// pretraining, a stacked sigmoid trunk, and a back-propagation output
// stage with the paper's three heads — the capacitor of the day C_{h,i}
// (softmax over H), the scheduling-pattern index α_{i,j} (linear scalar)
// and the executed-task set te_{i,j}(n) (per-task sigmoids).
package ann

import (
	"solarsched/internal/mat"
	"solarsched/internal/rng"
)

// RBM is a restricted Boltzmann machine with logistic units: nv visible and
// nh hidden units, weights W (nh × nv), visible biases BVis and hidden
// biases BHid.
type RBM struct {
	W    *mat.Matrix
	BVis mat.Vector
	BHid mat.Vector
}

// NewRBM returns an RBM with small random weights.
func NewRBM(nv, nh int, src *rng.Source) *RBM {
	return &RBM{
		W:    mat.NewMatrix(nh, nv).Randomize(src, 0.05),
		BVis: mat.NewVector(nv),
		BHid: mat.NewVector(nh),
	}
}

// HiddenProbs returns P(h=1 | v) for every hidden unit.
func (r *RBM) HiddenProbs(v mat.Vector) mat.Vector { return r.hiddenProbs(v, nil) }

func (r *RBM) hiddenProbs(v, dst mat.Vector) mat.Vector {
	h := r.W.MulVec(v, dst)
	for i := range h {
		h[i] = mat.Sigmoid(h[i] + r.BHid[i])
	}
	return h
}

// VisibleProbs returns P(v=1 | h) for every visible unit.
func (r *RBM) VisibleProbs(h mat.Vector) mat.Vector { return r.visibleProbs(h, nil) }

func (r *RBM) visibleProbs(h, dst mat.Vector) mat.Vector {
	v := r.W.MulVecT(h, dst)
	for i := range v {
		v[i] = mat.Sigmoid(v[i] + r.BVis[i])
	}
	return v
}

// sample draws a 0/1 state per unit into dst, one draw per unit in order.
func sample(probs, dst mat.Vector, src *rng.Source) mat.Vector {
	for i, p := range probs {
		dst[i] = 0
		if src.Float64() < p {
			dst[i] = 1
		}
	}
	return dst
}

// cdScratch is the four vectors of one CD-1 step, reused across the
// samples of a training pass.
type cdScratch struct{ h0, h0s, v1, h1 mat.Vector }

func (r *RBM) newCDScratch() *cdScratch {
	nv, nh := len(r.BVis), len(r.BHid)
	return &cdScratch{h0: mat.NewVector(nh), h0s: mat.NewVector(nh), v1: mat.NewVector(nv), h1: mat.NewVector(nh)}
}

// cd1 performs one step of contrastive divergence on a single visible
// vector with learning rate lr: positive phase on the data, one Gibbs step
// for the negative phase, stochastic hidden states on the way down.
func (r *RBM) cd1(sc *cdScratch, v0 mat.Vector, lr float64, src *rng.Source) {
	h0 := r.hiddenProbs(v0, sc.h0)
	h0s := sample(h0, sc.h0s, src)
	v1 := r.visibleProbs(h0s, sc.v1)
	h1 := r.hiddenProbs(v1, sc.h1)

	// ΔW = lr·(h0·v0ᵀ − h1·v1ᵀ); biases likewise.
	addOuter2(r.W, lr, h0, v0, -lr, h1, v1)
	for i := range r.BVis {
		r.BVis[i] += lr * (v0[i] - v1[i])
	}
	for i := range r.BHid {
		r.BHid[i] += lr * (h0[i] - h1[i])
	}
}

// addOuter2 applies m += s1·u1·w1ᵀ and then m += s2·u2·w2ᵀ in one pass
// over m's rows. Every element takes the two terms in that order, each
// rounded as mat.Matrix.AddOuterScaled rounds it and behind the same
// zero-skip, so m ends bit-identical to the two AddOuterScaled calls.
func addOuter2(m *mat.Matrix, s1 float64, u1, w1 mat.Vector, s2 float64, u2, w2 mat.Vector) {
	c := m.Cols
	w1, w2 = w1[:c], w2[:c]
	for i := 0; i < m.Rows; i++ {
		a, b := s1*u1[i], s2*u2[i]
		row := m.Data[i*c:][:c]
		switch {
		case a != 0 && b != 0:
			for j, x := range row {
				x += a * w1[j]
				x += b * w2[j]
				row[j] = x
			}
		case a != 0:
			for j := range row {
				row[j] += a * w1[j]
			}
		case b != 0:
			for j := range row {
				row[j] += b * w2[j]
			}
		}
	}
}

// ReconstructionError returns the mean squared one-step reconstruction
// error over the data set — the standard progress metric for CD training.
func (r *RBM) ReconstructionError(data []mat.Vector) float64 {
	if len(data) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range data {
		recon := r.VisibleProbs(r.HiddenProbs(v))
		for i := range v {
			d := v[i] - recon[i]
			total += d * d
		}
	}
	return total / float64(len(data)*len(data[0]))
}

// trainEpoch runs one full pass of CD-1 over the data in a deterministic
// shuffled order.
func (r *RBM) trainEpoch(sc *cdScratch, data []mat.Vector, lr float64, src *rng.Source) {
	for _, idx := range src.Perm(len(data)) {
		r.cd1(sc, data[idx], lr, src)
	}
}

// TrainEpochs runs epochs full passes of CD-1 over the data in a
// deterministic shuffled order.
func (r *RBM) TrainEpochs(data []mat.Vector, epochs int, lr float64, src *rng.Source) {
	sc := r.newCDScratch()
	for e := 0; e < epochs; e++ {
		r.trainEpoch(sc, data, lr, src)
	}
}
