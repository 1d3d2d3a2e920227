package mat

import (
	"math"
	"testing"

	"solarsched/internal/rng"
)

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	v1 := ws.Vec(8)
	v1[0] = 42
	// Distinct loans within one generation must not alias.
	v2 := ws.Vec(8)
	if &v1[0] == &v2[0] {
		t.Fatal("Vec returned the same buffer twice before Reset")
	}
	ws.Reset()
	v3 := ws.Vec(8)
	if &v3[0] != &v1[0] && &v3[0] != &v2[0] {
		t.Fatal("Vec did not recycle a freed buffer after Reset")
	}
	if v3[0] != 0 {
		t.Fatalf("recycled vector not zeroed: %v", v3[0])
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var ws *Workspace
	v := ws.Vec(4)
	if len(v) != 4 {
		t.Fatalf("nil workspace Vec len = %d", len(v))
	}
	ws.Reset() // must not panic
}

// The fused kernel must reproduce MulVecT followed by AddOuterScaled bit
// for bit — product and updated matrix — including where either kernel's
// zero-skip fires: zero entries of v, s = 0, and non-square shapes.
func TestMulVecTAddOuterMatchesTwoKernels(t *testing.T) {
	src := rng.New(21)
	for _, c := range []struct {
		rows, cols int
		s          float64
		zeros      []int // entries of v set to zero
	}{
		{1, 1, -0.05, nil},
		{3, 7, -0.05, []int{1}},
		{7, 3, 0.3, []int{0, 6}},
		{12, 12, -1e-3, []int{2, 3, 4}},
		{5, 9, 0, nil},
		{4, 6, 0, []int{0}},
		{6, 4, 2.5, []int{0, 1, 2, 3, 4, 5}},
		{0, 3, -0.1, nil},
		{3, 0, -0.1, nil},
		{4, 5, math.Inf(1), []int{1, 2}}, // s·0 is NaN: the update runs on a zero row of v
	} {
		m := NewMatrix(c.rows, c.cols).Randomize(src, 1)
		v, w := NewVector(c.rows), NewVector(c.cols)
		for i := range v {
			v[i] = src.Norm(0, 1)
		}
		for _, i := range c.zeros {
			v[i] = 0
		}
		for j := range w {
			w[j] = src.Norm(0, 1)
		}
		ref := m.Clone()
		want := ref.MulVecT(v, nil)
		ref.AddOuterScaled(c.s, v, w)

		dst := NewVector(c.cols)
		for j := range dst {
			dst[j] = math.NaN() // stale contents must not leak into the product
		}
		got := m.MulVecTAddOuter(v, c.s, w, dst)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%dx%d s=%g: product[%d] = %v, want %v", c.rows, c.cols, c.s, j, got[j], want[j])
			}
		}
		for k := range ref.Data {
			if math.Float64bits(m.Data[k]) != math.Float64bits(ref.Data[k]) {
				t.Fatalf("%dx%d s=%g: updated element %d = %v, want %v", c.rows, c.cols, c.s, k, m.Data[k], ref.Data[k])
			}
		}
		if nilDst := m.Clone().MulVecTAddOuter(v, c.s, w, nil); len(nilDst) != c.cols {
			t.Fatalf("%dx%d: nil dst gave length %d", c.rows, c.cols, len(nilDst))
		}
	}
}

func TestMulVecTAddOuterShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for name, f := range map[string]func(){
		"v":   func() { m.MulVecTAddOuter(NewVector(3), 1, NewVector(3), nil) },
		"w":   func() { m.MulVecTAddOuter(NewVector(2), 1, NewVector(2), nil) },
		"dst": func() { m.MulVecTAddOuter(NewVector(2), 1, NewVector(3), NewVector(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("wrong %s length accepted", name)
				}
			}()
			f()
		}()
	}
}
