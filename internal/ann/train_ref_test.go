package ann

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"solarsched/internal/mat"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
)

// refCD1 is CD-1 as it was before its scratch buffers and the fused
// rank-1 updates: four fresh vectors per sample and two passes over W.
func refCD1(r *RBM, v0 mat.Vector, lr float64, src *rng.Source) {
	h0 := r.HiddenProbs(v0)
	h0s := mat.NewVector(len(h0))
	for i, p := range h0 {
		if src.Float64() < p {
			h0s[i] = 1
		}
	}
	v1 := r.VisibleProbs(h0s)
	h1 := r.HiddenProbs(v1)
	r.W.AddOuterScaled(lr, h0, v0)
	r.W.AddOuterScaled(-lr, h1, v1)
	for i := range r.BVis {
		r.BVis[i] += lr * (v0[i] - v1[i])
	}
	for i := range r.BHid {
		r.BHid[i] += lr * (h0[i] - h1[i])
	}
}

// refPretrain is Pretrain over refCD1.
func refPretrain(n *Network, inputs []mat.Vector, epochs int, lr float64) {
	src := rng.New(n.cfg.Seed).SplitLabeled("dbn-pretrain")
	data := inputs
	for l := range n.trunkW {
		rbm := NewRBM(n.trunkW[l].Cols, n.trunkW[l].Rows, src.SplitLabeled(fmt.Sprintf("layer-%d", l)))
		cd := src.SplitLabeled(fmt.Sprintf("cd-%d", l))
		for e := 0; e < epochs; e++ {
			for _, idx := range cd.Perm(len(data)) {
				refCD1(rbm, data[idx], lr, cd)
			}
		}
		n.trunkW[l] = rbm.W.Clone()
		copy(n.trunkB[l], rbm.BHid)
		next := make([]mat.Vector, len(data))
		for i, v := range data {
			next[i] = rbm.HiddenProbs(v)
		}
		data = next
	}
}

// refTrunkForward returns the activations of every trunk layer (index 0 is
// the input itself) in fresh vectors.
func refTrunkForward(n *Network, x mat.Vector) []mat.Vector {
	acts := make([]mat.Vector, len(n.trunkW)+1)
	acts[0] = x
	for l, w := range n.trunkW {
		a := w.MulVec(acts[l], nil)
		for i := range a {
			a[i] = mat.Sigmoid(a[i] + n.trunkB[l][i])
		}
		acts[l+1] = a
	}
	return acts
}

// refStep is the fine-tuning step as it was before its scratch, the fused
// kernel and the on-demand loss: fresh buffers for every activation and
// gradient, a MulVecT and an AddOuterScaled pass per weight matrix, and
// the loss on every sample.
func refStep(n *Network, x mat.Vector, t Target, lr, alphaW float64) float64 {
	acts := refTrunkForward(n, x)
	h := acts[len(n.trunkW)]
	capProbs := mat.Softmax(n.capW.MulVec(h, nil).Add(n.capB), nil)
	alpha := n.alphaW.Dot(h) + n.alphaB
	teProbs := n.teW.MulVec(h, nil)
	for i := range teProbs {
		teProbs[i] = mat.Sigmoid(teProbs[i] + n.teB[i])
	}
	loss := -math.Log(math.Max(capProbs[t.Cap], 1e-12))
	da := alpha - t.Alpha
	loss += alphaW * da * da
	for i := range teProbs {
		p := math.Min(math.Max(teProbs[i], 1e-12), 1-1e-12)
		loss += -(t.Te[i]*math.Log(p) + (1-t.Te[i])*math.Log(1-p))
	}
	dCap := capProbs.Clone()
	dCap[t.Cap] -= 1
	dAlpha := 2 * alphaW * da
	dTe := teProbs.Clone()
	for i := range dTe {
		dTe[i] -= t.Te[i]
	}
	dh := n.capW.MulVecT(dCap, nil)
	dh.AddScaled(dAlpha, n.alphaW)
	dh.Add(n.teW.MulVecT(dTe, nil))
	n.capW.AddOuterScaled(-lr, dCap, h)
	n.capB.AddScaled(-lr, dCap)
	n.alphaW.AddScaled(-lr*dAlpha, h)
	n.alphaB -= lr * dAlpha
	n.teW.AddOuterScaled(-lr, dTe, h)
	n.teB.AddScaled(-lr, dTe)
	delta := dh
	for l := len(n.trunkW) - 1; l >= 0; l-- {
		a := acts[l+1]
		for i := range delta {
			delta[i] *= mat.SigmoidPrimeFromY(a[i])
		}
		prevDelta := n.trunkW[l].MulVecT(delta, nil)
		n.trunkW[l].AddOuterScaled(-lr, delta, acts[l])
		n.trunkB[l].AddScaled(-lr, delta)
		delta = prevDelta
	}
	return loss
}

// refTrain is Train over refStep.
func refTrain(n *Network, inputs []mat.Vector, targets []Target, opt TrainOptions) float64 {
	src := rng.New(n.cfg.Seed).SplitLabeled("dbn-train")
	finalLoss := 0.0
	for e := 0; e < opt.Epochs; e++ {
		total := 0.0
		lr := opt.LearnRate / (1 + 0.02*float64(e))
		for _, idx := range src.Perm(len(inputs)) {
			total += refStep(n, inputs[idx], targets[idx], lr, opt.AlphaWeight)
		}
		finalLoss = total / float64(len(inputs))
	}
	return finalLoss
}

// Pretraining and fine-tuning over the training pass's buffers, with the
// fused kernels and the loss computed only where read, give byte-identical
// weights and the same final loss as the reference implementation — with
// and without an observer, on one- and three-layer trunks.
func TestTrainMatchesReference(t *testing.T) {
	inputs, targets := makeSupervised(60, rng.New(8))
	opt := DefaultTrainOptions()
	opt.Epochs = 25
	for _, hidden := range [][]int{{6}, {16, 9, 5}} {
		cfg := Config{InputDim: 8, Hidden: hidden, CapClasses: 4, TaskCount: 4, Seed: 11}
		ref := New(cfg)
		refPretrain(ref, inputs, 6, 0.05)
		wantLoss := refTrain(ref, inputs, targets, opt)
		want := writeJSON(t, ref)
		for _, observed := range []bool{false, true} {
			n := New(cfg)
			if observed {
				n.SetObserver(obs.NewRegistry())
			}
			n.Pretrain(inputs, 6, 0.05)
			loss := n.Train(inputs, targets, opt)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Errorf("hidden %v observed=%v: final loss %v, reference %v", hidden, observed, loss, wantLoss)
			}
			if got := writeJSON(t, n); !bytes.Equal(got, want) {
				t.Errorf("hidden %v observed=%v: trained network differs from the reference", hidden, observed)
			}
		}
	}
}

func writeJSON(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A warm fine-tuning step allocates nothing.
func TestTrainStepAllocFree(t *testing.T) {
	inputs, targets := makeSupervised(1, rng.New(1))
	n := New(Config{InputDim: 8, Hidden: []int{20, 12}, CapClasses: 4, TaskCount: 4, Seed: 5})
	sc := n.newTrainScratch()
	if a := testing.AllocsPerRun(50, func() { n.step(sc, inputs[0], targets[0], 0.01, 0.3, true) }); a != 0 {
		t.Fatalf("a training step allocates %v times", a)
	}
	r := NewRBM(8, 6, rng.New(2))
	cd := r.newCDScratch()
	src := rng.New(3)
	if a := testing.AllocsPerRun(50, func() { r.cd1(cd, inputs[0], 0.05, src) }); a != 0 {
		t.Fatalf("a CD-1 step allocates %v times", a)
	}
}
