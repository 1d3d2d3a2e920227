package ann

import (
	"fmt"
	"math"

	"solarsched/internal/mat"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
)

// Config describes the network shape.
type Config struct {
	InputDim   int
	Hidden     []int // trunk layer sizes, e.g. {24, 12}
	CapClasses int   // H, the number of capacitors
	TaskCount  int   // N, the number of tasks (te outputs)
	Seed       uint64
}

// Target is one supervised training target: the optimal capacitor of the
// day, the scheduling-pattern index and the executed-task set, as produced
// by the offline long-term optimization (§4.2).
type Target struct {
	Cap   int
	Alpha float64
	Te    []float64 // 0/1 per task
}

// Output is the network's period-level decision.
type Output struct {
	CapProbs mat.Vector // softmax over the H capacitors
	Alpha    float64
	Te       mat.Vector // per-task execution probabilities
}

// Cap returns the argmax capacitor index.
func (o Output) Cap() int { return o.CapProbs.ArgMax() }

// TeMask returns the boolean executed-task set at threshold 0.5.
func (o Output) TeMask() []bool { return o.TeMaskTo(nil) }

// TeMaskTo is TeMask writing into dst, which it returns; dst is replaced
// by a fresh mask unless it has one entry per task.
func (o Output) TeMaskTo(dst []bool) []bool {
	if len(dst) != len(o.Te) {
		dst = make([]bool, len(o.Te))
	}
	for i, p := range o.Te {
		dst[i] = p >= 0.5
	}
	return dst
}

// Network is the DBN: a stack of sigmoid trunk layers (RBM-pretrainable)
// and three output heads reading the last trunk layer.
type Network struct {
	cfg    Config
	trunkW []*mat.Matrix // [l]: sizes[l+1] × sizes[l]
	trunkB []mat.Vector
	capW   *mat.Matrix // CapClasses × lastHidden
	capB   mat.Vector
	alphaW mat.Vector // 1 × lastHidden
	alphaB float64
	teW    *mat.Matrix // TaskCount × lastHidden
	teB    mat.Vector

	prov *Provenance   // optional training provenance, carried by WriteJSON
	reg  *obs.Registry // optional training telemetry sink
}

// SetObserver routes training telemetry (epoch counters, loss and
// reconstruction-error gauges, per-phase spans) into reg. Nil disables
// it; per-epoch reconstruction error is only computed when a sink is set,
// since it costs a full pass over the data.
func (n *Network) SetObserver(reg *obs.Registry) { n.reg = reg }

// New builds an untrained network.
func New(cfg Config) *Network {
	if cfg.InputDim <= 0 || len(cfg.Hidden) == 0 || cfg.CapClasses <= 0 || cfg.TaskCount <= 0 {
		panic(fmt.Sprintf("ann: bad config %+v", cfg))
	}
	src := rng.New(cfg.Seed).SplitLabeled("dbn-init")
	n := &Network{cfg: cfg}
	prev := cfg.InputDim
	for _, h := range cfg.Hidden {
		n.trunkW = append(n.trunkW, mat.NewMatrix(h, prev).Randomize(src, 1/math.Sqrt(float64(prev))))
		n.trunkB = append(n.trunkB, mat.NewVector(h))
		prev = h
	}
	n.capW = mat.NewMatrix(cfg.CapClasses, prev).Randomize(src, 1/math.Sqrt(float64(prev)))
	n.capB = mat.NewVector(cfg.CapClasses)
	n.alphaW = mat.NewVector(prev)
	for i := range n.alphaW {
		n.alphaW[i] = src.Norm(0, 1/math.Sqrt(float64(prev)))
	}
	n.teW = mat.NewMatrix(cfg.TaskCount, prev).Randomize(src, 1/math.Sqrt(float64(prev)))
	n.teB = mat.NewVector(cfg.TaskCount)
	return n
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Clone returns a deep copy of the network: further training of the copy
// (the continuous-learning trainer fine-tunes a clone of the serving
// weights) never disturbs the original, which may be serving concurrent
// inference. The observer is not carried over; provenance is copied.
func (n *Network) Clone() *Network {
	c := &Network{cfg: n.cfg}
	for l := range n.trunkW {
		c.trunkW = append(c.trunkW, n.trunkW[l].Clone())
		c.trunkB = append(c.trunkB, n.trunkB[l].Clone())
	}
	c.capW = n.capW.Clone()
	c.capB = n.capB.Clone()
	c.alphaW = n.alphaW.Clone()
	c.alphaB = n.alphaB
	c.teW = n.teW.Clone()
	c.teB = n.teB.Clone()
	if n.prov != nil {
		p := *n.prov
		c.prov = &p
	}
	return c
}

// trunkForward returns the last trunk layer's activation. Activation
// buffers come from ws when non-nil (valid until ws.Reset); a nil ws
// allocates fresh vectors. Each layer reads only the one before it, so
// no per-call list of activations is kept.
func (n *Network) trunkForward(x mat.Vector, ws *mat.Workspace) mat.Vector {
	a := x
	for l, w := range n.trunkW {
		next := w.MulVec(a, ws.Vec(w.Rows))
		for i := range next {
			next[i] = mat.Sigmoid(next[i] + n.trunkB[l][i])
		}
		a = next
	}
	return a
}

// Forward runs the full network, allocating fresh output buffers. It is safe
// for concurrent use on a shared (read-only) network.
func (n *Network) Forward(x mat.Vector) Output { return n.ForwardWS(x, nil) }

// ForwardWS runs the full network using ws for every intermediate and output
// buffer. With a non-nil ws the returned Output's CapProbs/Te slices are
// workspace-owned and only valid until ws.Reset — copy them if they must
// outlive the pass. A nil ws behaves exactly like Forward.
func (n *Network) ForwardWS(x mat.Vector, ws *mat.Workspace) Output {
	if len(x) != n.cfg.InputDim {
		panic(fmt.Sprintf("ann: input dim %d, want %d", len(x), n.cfg.InputDim))
	}
	h := n.trunkForward(x, ws)
	capLogits := n.capW.MulVec(h, ws.Vec(n.cfg.CapClasses)).Add(n.capB)
	te := n.teW.MulVec(h, ws.Vec(n.cfg.TaskCount))
	for i := range te {
		te[i] = mat.Sigmoid(te[i] + n.teB[i])
	}
	return Output{
		CapProbs: mat.Softmax(capLogits, ws.Vec(n.cfg.CapClasses)),
		Alpha:    n.alphaW.Dot(h) + n.alphaB,
		Te:       te,
	}
}

// Pretrain performs the DBN's greedy layer-wise unsupervised pretraining:
// layer l is trained as an RBM on the activations of layer l−1 (§5.1's
// "hidden layers extract the features of the inputs by unsupervised
// learning"), then its weights initialize the trunk.
func (n *Network) Pretrain(inputs []mat.Vector, epochs int, lr float64) {
	if len(inputs) == 0 {
		return
	}
	src := rng.New(n.cfg.Seed).SplitLabeled("dbn-pretrain")
	epochCount := n.reg.Counter("ann_pretrain_epochs_total")
	reconErr := n.reg.Gauge("ann_pretrain_reconstruction_error")
	data := inputs
	for l := range n.trunkW {
		span := n.reg.StartSpan(fmt.Sprintf("ann/pretrain/layer-%d", l))
		nv := n.trunkW[l].Cols
		nh := n.trunkW[l].Rows
		rbm := NewRBM(nv, nh, src.SplitLabeled(fmt.Sprintf("layer-%d", l)))
		cd := src.SplitLabeled(fmt.Sprintf("cd-%d", l))
		sc := rbm.newCDScratch()
		for e := 0; e < epochs; e++ {
			rbm.trainEpoch(sc, data, lr, cd)
			epochCount.Inc()
			if n.reg != nil {
				reconErr.Set(rbm.ReconstructionError(data))
			}
		}
		n.trunkW[l] = rbm.W.Clone()
		copy(n.trunkB[l], rbm.BHid)
		// Propagate the data through the freshly trained layer.
		next := make([]mat.Vector, len(data))
		for i, v := range data {
			next[i] = rbm.HiddenProbs(v)
		}
		data = next
		span.End()
	}
}

// TrainOptions tunes the supervised fine-tuning stage.
type TrainOptions struct {
	Epochs      int
	LearnRate   float64
	AlphaWeight float64 // weight of the α MSE term in the combined loss
}

// DefaultTrainOptions returns sensible fine-tuning settings.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 60, LearnRate: 0.05, AlphaWeight: 0.3}
}

// Train runs back-propagation fine-tuning over the (input, target) pairs
// with the combined loss CE(cap) + AlphaWeight·MSE(α) + BCE(te). It
// returns the mean loss of the final epoch. The loss never feeds the
// weights, so it is computed only where something reads it: on the final
// epoch, and on every epoch when an observer records the per-epoch gauge.
func (n *Network) Train(inputs []mat.Vector, targets []Target, opt TrainOptions) float64 {
	if len(inputs) != len(targets) {
		panic(fmt.Sprintf("ann: %d inputs vs %d targets", len(inputs), len(targets)))
	}
	if len(inputs) == 0 {
		return 0
	}
	src := rng.New(n.cfg.Seed).SplitLabeled("dbn-train")
	span := n.reg.StartSpan("ann/finetune")
	epochCount := n.reg.Counter("ann_finetune_epochs_total")
	lossGauge := n.reg.Gauge("ann_finetune_loss")
	sc := n.newTrainScratch()
	finalLoss := 0.0
	for e := 0; e < opt.Epochs; e++ {
		withLoss := n.reg != nil || e == opt.Epochs-1
		total := 0.0
		lr := opt.LearnRate / (1 + 0.02*float64(e)) // mild decay
		for _, idx := range src.Perm(len(inputs)) {
			total += n.step(sc, inputs[idx], targets[idx], lr, opt.AlphaWeight, withLoss)
		}
		if withLoss {
			finalLoss = total / float64(len(inputs))
			lossGauge.Set(finalLoss)
		}
		epochCount.Inc()
	}
	span.End()
	return finalLoss
}

// trainScratch is one training pass's buffers, overwritten by every step:
// the trunk activations, the heads' outputs (turned into their deltas in
// place) and the gradients back-propagated into each trunk layer.
type trainScratch struct {
	acts     []mat.Vector // acts[0] is the sample; acts[l+1] trunk layer l's output
	back     []mat.Vector // back[l]: gradient into acts[l], for l ≥ 1
	capLogit mat.Vector
	dCap     mat.Vector // softmax output, then its logit-space delta
	dTe      mat.Vector // sigmoid outputs, then their deltas
	teBack   mat.Vector // teWᵀ·dTe
}

func (n *Network) newTrainScratch() *trainScratch {
	L := len(n.trunkW)
	sc := &trainScratch{
		acts:     make([]mat.Vector, L+1),
		back:     make([]mat.Vector, L+1),
		capLogit: mat.NewVector(n.cfg.CapClasses),
		dCap:     mat.NewVector(n.cfg.CapClasses),
		dTe:      mat.NewVector(n.cfg.TaskCount),
		teBack:   mat.NewVector(n.trunkW[L-1].Rows),
	}
	for l, w := range n.trunkW {
		sc.acts[l+1] = mat.NewVector(w.Rows)
		sc.back[l+1] = mat.NewVector(w.Rows)
	}
	return sc
}

// step performs one SGD update over sc and returns the sample's loss, or
// 0 without withLoss. Each weight matrix is walked once: its
// back-propagated product and its update share one row pass
// (mat.Matrix.MulVecTAddOuter), which reads every weight before updating
// it, so the gradients are those of the pre-update weights.
func (n *Network) step(sc *trainScratch, x mat.Vector, t Target, lr, alphaW float64, withLoss bool) float64 {
	L := len(n.trunkW)
	acts := sc.acts
	acts[0] = x
	for l, w := range n.trunkW {
		a := w.MulVec(acts[l], acts[l+1])
		for i := range a {
			a[i] = mat.Sigmoid(a[i] + n.trunkB[l][i])
		}
	}
	h := acts[L]

	// Heads forward.
	capProbs := mat.Softmax(n.capW.MulVec(h, sc.capLogit).Add(n.capB), sc.dCap)
	alpha := n.alphaW.Dot(h) + n.alphaB
	teProbs := n.teW.MulVec(h, sc.dTe)
	for i := range teProbs {
		teProbs[i] = mat.Sigmoid(teProbs[i] + n.teB[i])
	}

	da := alpha - t.Alpha
	loss := 0.0
	if withLoss {
		loss = -math.Log(math.Max(capProbs[t.Cap], 1e-12))
		loss += alphaW * da * da
		for i := range teProbs {
			p := math.Min(math.Max(teProbs[i], 1e-12), 1-1e-12)
			loss += -(t.Te[i]*math.Log(p) + (1-t.Te[i])*math.Log(1-p))
		}
	}

	// Head gradients (logit-space deltas), in place.
	dCap := capProbs
	dCap[t.Cap] -= 1
	dAlpha := 2 * alphaW * da
	dTe := teProbs
	for i := range dTe {
		dTe[i] -= t.Te[i]
	}

	// Gradient into the last hidden layer, fused with the head weight
	// updates: capWᵀ·dCap, then dAlpha·alphaW before alphaW moves, then
	// teWᵀ·dTe.
	dh := n.capW.MulVecTAddOuter(dCap, -lr, h, sc.back[L])
	dh.AddScaled(dAlpha, n.alphaW)
	dh.Add(n.teW.MulVecTAddOuter(dTe, -lr, h, sc.teBack))
	n.capB.AddScaled(-lr, dCap)
	n.alphaW.AddScaled(-lr*dAlpha, h)
	n.alphaB -= lr * dAlpha
	n.teB.AddScaled(-lr, dTe)

	// Back-propagate through the trunk. The input layer's gradient has no
	// reader, so layer 0 takes only its update.
	delta := dh
	for l := L - 1; l >= 0; l-- {
		a := acts[l+1]
		for i := range delta {
			delta[i] *= mat.SigmoidPrimeFromY(a[i])
		}
		var prevDelta mat.Vector
		if l > 0 {
			prevDelta = n.trunkW[l].MulVecTAddOuter(delta, -lr, acts[l], sc.back[l])
		} else {
			n.trunkW[l].AddOuterScaled(-lr, delta, acts[l])
		}
		n.trunkB[l].AddScaled(-lr, delta)
		delta = prevDelta
	}
	return loss
}

// OpCount returns the number of multiply and add operations of one forward
// pass — the quantity the overhead model of §6.5 charges to the node's
// 93.5 kHz processor.
func (n *Network) OpCount() (muls, adds int) {
	count := func(rows, cols int) {
		muls += rows * cols
		adds += rows * cols // accumulate + bias, folded
	}
	prev := n.cfg.InputDim
	for _, h := range n.cfg.Hidden {
		count(h, prev)
		prev = h
	}
	count(n.cfg.CapClasses, prev)
	count(1, prev)
	count(n.cfg.TaskCount, prev)
	return muls, adds
}
