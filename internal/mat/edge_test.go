package mat

import "testing"

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dimension accepted")
		}
	}()
	NewMatrix(-1, 2)
}

func TestNewMatrixFromEmpty(t *testing.T) {
	m := newMatrixFrom(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty matrix = %dx%d", m.Rows, m.Cols)
	}
}

func TestMatrixClone(t *testing.T) {
	a := newMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	out := Softmax(Vector{}, nil)
	if len(out) != 0 {
		t.Fatalf("empty softmax = %v", out)
	}
}

func TestSoftmaxIntoDst(t *testing.T) {
	dst := NewVector(2)
	out := Softmax(Vector{0, 0}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("Softmax did not reuse dst")
	}
	if out[0] != 0.5 || out[1] != 0.5 {
		t.Fatalf("softmax = %v", out)
	}
}

func TestArgMaxPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ArgMax accepted")
		}
	}()
	Vector{}.ArgMax()
}

func TestMulVecIntoDst(t *testing.T) {
	m := newMatrixFrom([][]float64{{2, 0}, {0, 3}})
	dst := NewVector(2)
	out := m.MulVec(Vector{1, 1}, dst)
	if &out[0] != &dst[0] || out[0] != 2 || out[1] != 3 {
		t.Fatalf("MulVec dst reuse failed: %v", out)
	}
}
