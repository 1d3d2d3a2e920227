package ann

import (
	"math"
	"testing"

	"solarsched/internal/mat"
	"solarsched/internal/rng"
)

// stripeData returns binary vectors that are either "left half on" or
// "right half on" — a structure an RBM learns quickly.
func stripeData(n, dim int, src *rng.Source) []mat.Vector {
	data := make([]mat.Vector, n)
	for i := range data {
		v := mat.NewVector(dim)
		half := src.Intn(2)
		for j := 0; j < dim/2; j++ {
			v[half*(dim/2)+j] = 1
		}
		// light noise
		if src.Bool(0.2) {
			v[src.Intn(dim)] = 1 - v[src.Intn(dim)]
		}
		data[i] = v
	}
	return data
}

func TestRBMLearnsStructure(t *testing.T) {
	src := rng.New(42)
	data := stripeData(200, 12, src)
	r := NewRBM(12, 8, src.SplitLabeled("rbm"))
	before := r.ReconstructionError(data)
	r.TrainEpochs(data, 30, 0.1, src.SplitLabeled("train"))
	after := r.ReconstructionError(data)
	if after >= before {
		t.Fatalf("CD-1 did not reduce reconstruction error: %v -> %v", before, after)
	}
	if after > 0.15 {
		t.Fatalf("reconstruction error %v still high", after)
	}
}

func TestRBMProbsInRange(t *testing.T) {
	src := rng.New(7)
	r := NewRBM(6, 4, src)
	v := mat.Vector{1, 0, 1, 0, 1, 0}
	h := r.HiddenProbs(v)
	for _, p := range h {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("hidden prob %v out of range", p)
		}
	}
	vr := r.VisibleProbs(h)
	if len(vr) != 6 {
		t.Fatalf("visible len %d", len(vr))
	}
	for _, p := range vr {
		if p < 0 || p > 1 {
			t.Fatalf("visible prob %v out of range", p)
		}
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	cfg := Config{InputDim: 10, Hidden: []int{16, 8}, CapClasses: 4, TaskCount: 6, Seed: 1}
	n := New(cfg)
	out := n.Forward(mat.NewVector(10))
	if len(out.CapProbs) != 4 || len(out.Te) != 6 {
		t.Fatalf("output shapes: cap=%d te=%d", len(out.CapProbs), len(out.Te))
	}
	if math.Abs(out.CapProbs.Sum()-1) > 1e-9 {
		t.Fatalf("cap probs sum %v", out.CapProbs.Sum())
	}
	for _, p := range out.Te {
		if p < 0 || p > 1 {
			t.Fatalf("te prob %v", p)
		}
	}
	mask := out.TeMask()
	if len(mask) != 6 {
		t.Fatalf("TeMask len %d", len(mask))
	}
}

func TestForwardPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim accepted")
		}
	}()
	New(Config{InputDim: 3, Hidden: []int{4}, CapClasses: 2, TaskCount: 2, Seed: 1}).
		Forward(mat.NewVector(5))
}

func requireSameOutput(t *testing.T, ctx string, got, want Output) {
	t.Helper()
	if got.Alpha != want.Alpha {
		t.Fatalf("%s: Alpha %v != %v", ctx, got.Alpha, want.Alpha)
	}
	for i := range want.CapProbs {
		if got.CapProbs[i] != want.CapProbs[i] {
			t.Fatalf("%s: CapProbs[%d] %v != %v", ctx, i, got.CapProbs[i], want.CapProbs[i])
		}
	}
	for i := range want.Te {
		if got.Te[i] != want.Te[i] {
			t.Fatalf("%s: Te[%d] %v != %v", ctx, i, got.Te[i], want.Te[i])
		}
	}
}

func TestForwardWSMatchesForward(t *testing.T) {
	n := New(Config{InputDim: 6, Hidden: []int{8, 4}, CapClasses: 3, TaskCount: 5, Seed: 9})
	src := rng.New(11).SplitLabeled("ann/ws")
	ws := mat.NewWorkspace()
	for i := 0; i < 10; i++ {
		x := mat.NewVector(6)
		for j := range x {
			x[j] = src.Norm(0, 2)
		}
		requireSameOutput(t, "ws", n.ForwardWS(x, ws), n.Forward(x))
		ws.Reset()
	}
}

// synthetic supervised problem: cap = quadrant of the input, alpha = mean,
// te = per-dimension threshold. The network must fit it.
func makeSupervised(n int, src *rng.Source) ([]mat.Vector, []Target) {
	inputs := make([]mat.Vector, n)
	targets := make([]Target, n)
	for i := 0; i < n; i++ {
		x := mat.NewVector(8)
		for j := range x {
			x[j] = src.Float64()
		}
		cap := 0
		if x[0] > 0.5 {
			cap = 1
		}
		if x[1] > 0.5 {
			cap += 2
		}
		te := make([]float64, 4)
		for j := range te {
			if x[j+2] > 0.5 {
				te[j] = 1
			}
		}
		inputs[i] = x
		targets[i] = Target{Cap: cap, Alpha: x.Sum() / 8, Te: te}
	}
	return inputs, targets
}

func TestTrainReducesLossAndFits(t *testing.T) {
	src := rng.New(3)
	inputs, targets := makeSupervised(400, src)
	n := New(Config{InputDim: 8, Hidden: []int{20, 12}, CapClasses: 4, TaskCount: 4, Seed: 5})
	n.Pretrain(inputs, 5, 0.05)
	opt := DefaultTrainOptions()
	opt.Epochs = 80
	loss := n.Train(inputs, targets, opt)
	if math.IsNaN(loss) || loss > 2.0 {
		t.Fatalf("final training loss %v too high", loss)
	}
	// Accuracy on the training set.
	capOK, teOK, teTot := 0, 0, 0
	alphaErr := 0.0
	for i, x := range inputs {
		out := n.Forward(x)
		if out.Cap() == targets[i].Cap {
			capOK++
		}
		for j, want := range targets[i].Te {
			got := 0.0
			if out.Te[j] >= 0.5 {
				got = 1
			}
			if got == want {
				teOK++
			}
			teTot++
		}
		alphaErr += math.Abs(out.Alpha - targets[i].Alpha)
	}
	if acc := float64(capOK) / float64(len(inputs)); acc < 0.85 {
		t.Fatalf("cap accuracy %v < 0.85", acc)
	}
	if acc := float64(teOK) / float64(teTot); acc < 0.85 {
		t.Fatalf("te accuracy %v < 0.85", acc)
	}
	if mean := alphaErr / float64(len(inputs)); mean > 0.1 {
		t.Fatalf("alpha mean abs error %v > 0.1", mean)
	}
}

func TestPretrainHelpsReconstruction(t *testing.T) {
	// Pretraining must change the first trunk layer towards the data
	// manifold: its hidden representation should reconstruct stripes better
	// than random weights do.
	src := rng.New(11)
	data := stripeData(150, 12, src)
	cfg := Config{InputDim: 12, Hidden: []int{8, 6}, CapClasses: 2, TaskCount: 2, Seed: 9}
	n := New(cfg)
	w0 := n.trunkW[0].Clone()
	n.Pretrain(data, 20, 0.1)
	diff := 0.0
	for i := range w0.Data {
		diff += math.Abs(w0.Data[i] - n.trunkW[0].Data[i])
	}
	if diff == 0 {
		t.Fatal("pretraining did not touch trunk weights")
	}
}

func TestTrainingDeterministic(t *testing.T) {
	src := rng.New(21)
	inputs, targets := makeSupervised(100, src)
	mk := func() *Network {
		n := New(Config{InputDim: 8, Hidden: []int{10}, CapClasses: 4, TaskCount: 4, Seed: 2})
		opt := DefaultTrainOptions()
		opt.Epochs = 10
		n.Train(inputs, targets, opt)
		return n
	}
	a, b := mk(), mk()
	x := inputs[0]
	oa, ob := a.Forward(x), b.Forward(x)
	if oa.Alpha != ob.Alpha || oa.Cap() != ob.Cap() {
		t.Fatal("training not deterministic")
	}
}

func TestOpCount(t *testing.T) {
	n := New(Config{InputDim: 10, Hidden: []int{20, 8}, CapClasses: 4, TaskCount: 6, Seed: 1})
	muls, adds := n.OpCount()
	want := 10*20 + 20*8 + 8*4 + 8*1 + 8*6
	if muls != want || adds != want {
		t.Fatalf("OpCount = %d,%d want %d", muls, adds, want)
	}
}

func BenchmarkForward(b *testing.B) {
	n := New(Config{InputDim: 14, Hidden: []int{24, 12}, CapClasses: 4, TaskCount: 8, Seed: 1})
	x := mat.NewVector(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

// BenchmarkTrainStep steps one sample through the DBN that core trains for
// wam on a four-capacitor bank: core.FeatureDim(4) = 13 inputs, the hidden
// layers of 48 and 24 units of core.DefaultTrainOptions, 4 capacitor
// classes and wam's 8 tasks (task.WAM). ann cannot import core, so the
// shape is written out here.
func BenchmarkTrainStep(b *testing.B) {
	src := rng.New(1)
	n := New(Config{InputDim: 13, Hidden: []int{48, 24}, CapClasses: 4, TaskCount: 8, Seed: 5})
	x := mat.NewVector(13)
	for j := range x {
		x[j] = src.Float64()
	}
	te := make([]float64, 8)
	for j := range te {
		if src.Float64() > 0.5 {
			te[j] = 1
		}
	}
	target := Target{Cap: 2, Alpha: x.Sum() / 13, Te: te}
	sc := n.newTrainScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step(sc, x, target, 0.01, 0.3, true)
	}
}
