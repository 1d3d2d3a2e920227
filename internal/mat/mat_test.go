package mat

import (
	"math"
	"testing"
	"testing/quick"

	"solarsched/internal/rng"
)

// newMatrixFrom builds a matrix from row slices of equal length: the
// tests' fixture.
func newMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		mustLen(len(r), m.Cols, "newMatrixFrom")
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Clone().Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := w.Clone().Sub(v); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Clone().Scale(2); got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Clone().AddScaled(10, w); got[0] != 41 {
		t.Fatalf("AddScaled = %v", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	if got := (Vector{0.1, 5, -2, 5}).ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %v", got)
	}
}

func TestVectorDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("At/Set roundtrip failed")
	}
}

func TestMulVec(t *testing.T) {
	m := newMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec(Vector{1, 1}, nil)
	want := Vector{3, 7, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v want %v", got, want)
		}
	}
}

func TestMulVecT(t *testing.T) {
	m := newMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVecT(Vector{1, 1, 1}, nil)
	want := Vector{9, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecT = %v want %v", got, want)
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, Vector{1, 3}, Vector{5, 7})
	if m.At(0, 0) != 10 || m.At(0, 1) != 14 || m.At(1, 0) != 30 || m.At(1, 1) != 42 {
		t.Fatalf("AddOuterScaled = %+v", m.Data)
	}
}

func TestAddScaledAndScale(t *testing.T) {
	a := newMatrixFrom([][]float64{{1, 1}})
	b := newMatrixFrom([][]float64{{2, 3}})
	a.AddScaled(10, b)
	if a.At(0, 0) != 21 || a.At(0, 1) != 31 {
		t.Fatalf("AddScaled = %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 0) != 10.5 {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestSigmoid(t *testing.T) {
	if !almost(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0)")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("Sigmoid saturation")
	}
	// Stability: huge negative input must not NaN.
	if math.IsNaN(Sigmoid(-1e9)) || math.IsNaN(Sigmoid(1e9)) {
		t.Fatal("Sigmoid NaN")
	}
	y := Sigmoid(0.3)
	if !almost(SigmoidPrimeFromY(y), y*(1-y), 1e-15) {
		t.Fatal("SigmoidPrimeFromY")
	}
}

func TestSoftmax(t *testing.T) {
	out := Softmax(Vector{1, 2, 3}, nil)
	if !almost(out.Sum(), 1, 1e-12) {
		t.Fatalf("Softmax sum = %v", out.Sum())
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("Softmax not monotone: %v", out)
	}
	// Stability with large logits.
	big := Softmax(Vector{1000, 1001}, nil)
	if math.IsNaN(big[0]) || !almost(big.Sum(), 1, 1e-12) {
		t.Fatalf("Softmax unstable: %v", big)
	}
}

// Property: (A·B)·v == A·(B·v) for random small matrices.
func TestAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		rows := 1 + src.Intn(8)
		cols := 1 + src.Intn(8)
		m := NewMatrix(rows, cols).Randomize(src, 1)
		x := NewVector(cols)
		y := NewVector(rows)
		for i := range x {
			x[i] = src.Norm(0, 1)
		}
		for i := range y {
			y[i] = src.Norm(0, 1)
		}
		return almost(m.MulVec(x, nil).Dot(y), x.Dot(m.MulVecT(y, nil)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec32(b *testing.B) {
	src := rng.New(1)
	m := NewMatrix(32, 32).Randomize(src, 1)
	v := NewVector(32)
	for i := range v {
		v[i] = src.Norm(0, 1)
	}
	dst := NewVector(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(v, dst)
	}
}
