package mat

import (
	"fmt"
	"math"
	"testing"

	"solarsched/internal/rng"
)

// The one-row loops the blocked kernels replaced, kept as references: each
// blocked kernel must reproduce them bit for bit.

func refMulVec(m *Matrix, v, dst Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		sum := 0.0
		for j, x := range row {
			sum += x * v[j]
		}
		dst[i] = sum
	}
}

func refMulVecTAddOuter(m *Matrix, v Vector, s float64, w, dst Vector) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		sv := s * vi
		switch {
		case vi != 0 && sv != 0:
			for j, x := range row {
				dst[j] += x * vi
				row[j] = x + sv*w[j]
			}
		case vi != 0:
			for j, x := range row {
				dst[j] += x * vi
			}
		case sv != 0:
			for j := range row {
				row[j] += sv * w[j]
			}
		}
	}
}

func refAddOuterScaled(m *Matrix, s float64, u, w Vector) {
	for i := 0; i < m.Rows; i++ {
		su := s * u[i]
		if su == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += su * w[j]
		}
	}
}

// specials are the values whose rounding, sign or propagation a reordered
// kernel would change: signed zeros, subnormals, infinities and NaN.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// draw returns a value that is special with probability pSpecial and
// otherwise finite, of mixed magnitudes so that additions round.
func draw(r *rng.Source, pSpecial float64) float64 {
	if r.Bool(pSpecial) {
		return specials[r.Intn(len(specials))]
	}
	return r.Norm(0, 1) * math.Pow(10, float64(r.IntRange(-3, 3)))
}

func drawVec(r *rng.Source, n int, pSpecial float64) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = draw(r, pSpecial)
	}
	return v
}

func drawMat(r *rng.Source, rows, cols int, pSpecial float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = draw(r, pSpecial)
	}
	return m
}

// sameFloat compares bit patterns; two NaNs count as equal, because which
// NaN payload an operation propagates is the hardware's choice of operand
// order, not the kernel's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestBlockedKernelsMatchOneRowReferences(t *testing.T) {
	r := rng.New(20150608)
	cases := 0
	// Rows 0–9 cover every remainder of the four-row and two-row blocks;
	// the columns include the DBN's.
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 3, 11, 24, 48} {
			for k := 0; k < 12; k++ {
				// Finite inputs first, then ever more specials; zeros in u (the
				// kernels' row scale) and a zero s exercise every skip branch.
				p := []float64{0, 0.05, 0.3}[k%3]
				m := drawMat(r, rows, cols, p)
				v, w := drawVec(r, cols, p), drawVec(r, cols, p)
				u := drawVec(r, rows, p)
				if k%4 == 1 {
					for i := range u {
						if r.Bool(0.4) {
							u[i] = 0
						}
					}
				}
				s := draw(r, p)
				if k%6 == 5 {
					s = 0
				}
				what := fmt.Sprintf("%dx%d case %d", rows, cols, k)

				got, want := m.MulVec(v, nil), NewVector(rows)
				refMulVec(m, v, want)
				sameFloats(t, what+" MulVec", got, want)

				mg, mw := m.Clone(), m.Clone()
				gotT, wantT := NewVector(cols), NewVector(cols)
				for j := range gotT {
					gotT[j] = math.NaN() // the kernel must clear dst
				}
				mg.MulVecTAddOuter(u, s, w, gotT)
				refMulVecTAddOuter(mw, u, s, w, wantT)
				sameFloats(t, what+" MulVecTAddOuter product", gotT, wantT)
				sameFloats(t, what+" MulVecTAddOuter update", mg.Data, mw.Data)

				mg, mw = m.Clone(), m.Clone()
				mg.AddOuterScaled(s, u, w)
				refAddOuterScaled(mw, s, u, w)
				sameFloats(t, what+" AddOuterScaled", mg.Data, mw.Data)
				cases++
			}
		}
	}
	t.Logf("%d cases", cases)
}

// The DBN's layer shapes (rows × columns = units × inputs): the first
// trunk layer's 48 units over the 11 features of a two-capacitor bank,
// the second's 24 units over 48, and a 6-unit head over 24.
var dbnShapes = [][2]int{{48, 11}, {24, 48}, {6, 24}}

func BenchmarkMulVec(b *testing.B) {
	r := rng.New(1)
	for _, sh := range dbnShapes {
		m := drawMat(r, sh[0], sh[1], 0)
		v, dst := drawVec(r, sh[1], 0), NewVector(sh[0])
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulVec(v, dst)
			}
		})
	}
}

func BenchmarkMulVecTAddOuter(b *testing.B) {
	r := rng.New(1)
	for _, sh := range dbnShapes {
		m := drawMat(r, sh[0], sh[1], 0)
		v, w, dst := drawVec(r, sh[0], 0), drawVec(r, sh[1], 0), NewVector(sh[1])
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A tiny step keeps the weights from drifting over b.N.
				m.MulVecTAddOuter(v, 1e-12, w, dst)
			}
		})
	}
}
