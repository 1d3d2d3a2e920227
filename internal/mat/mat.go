// Package mat implements the small dense linear algebra needed by the
// artificial neural network in this repository: vectors, row-major matrices,
// matrix-vector products, outer products and the activation functions. It is intentionally tiny — the DBN in the paper has a few dozen
// units per layer, so a cache-blocked BLAS would be wasted effort — but it
// is dimension-checked everywhere so shape bugs fail fast.
package mat

import (
	"fmt"
	"math"

	"solarsched/internal/rng"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add adds w into v in place and returns v. Panics on length mismatch.
func (v Vector) Add(w Vector) Vector {
	mustLen(len(v), len(w), "Vector.Add")
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub subtracts w from v in place and returns v.
func (v Vector) Sub(w Vector) Vector {
	mustLen(len(v), len(w), "Vector.Sub")
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale multiplies v by s in place and returns v.
func (v Vector) Scale(s float64) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// AddScaled adds s*w into v in place and returns v (axpy).
func (v Vector) AddScaled(s float64, w Vector) Vector {
	mustLen(len(v), len(w), "Vector.AddScaled")
	for i := range v {
		v[i] += s * w[i]
	}
	return v
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	mustLen(len(v), len(w), "Vector.Dot")
	sum := 0.0
	for i := range v {
		sum += v[i] * w[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index of the maximum element (first on ties).
// It panics on an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randomize fills m with N(0, stddev) entries from src and returns m.
func (m *Matrix) Randomize(src *rng.Source, stddev float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = src.Norm(0, stddev)
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = m · v, allocating dst when nil. It returns dst.
//
// Rows are taken four at a time, each with its own accumulator summed in
// ascending column order, so every dst[i] is bit-identical to the one-row
// dot product; the four dependency chains overlap in the pipeline instead
// of each add waiting on the one before. Leftover rows take the one-row
// loop.
func (m *Matrix) MulVec(v Vector, dst Vector) Vector {
	mustLen(len(v), m.Cols, "Matrix.MulVec input")
	if dst == nil {
		dst = NewVector(m.Rows)
	}
	mustLen(len(dst), m.Rows, "Matrix.MulVec output")
	c := m.Cols
	v = v[:c]
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*c:][:c]
		r1 := m.Data[(i+1)*c:][:c]
		r2 := m.Data[(i+2)*c:][:c]
		r3 := m.Data[(i+3)*c:][:c]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*c:][:c]
		sum := 0.0
		for j, x := range row {
			sum += x * v[j]
		}
		dst[i] = sum
	}
	return dst
}

// MulVecT computes dst = mᵀ · v, allocating dst when nil. It returns dst.
func (m *Matrix) MulVecT(v Vector, dst Vector) Vector {
	mustLen(len(v), m.Rows, "Matrix.MulVecT input")
	if dst == nil {
		dst = NewVector(m.Cols)
	}
	mustLen(len(dst), m.Cols, "Matrix.MulVecT output")
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, x := range row {
			dst[j] += x * vi
		}
	}
	return dst
}

// MulVecTAddOuter computes dst = mᵀ·v and applies the rank-1 update
// m += s·v·wᵀ in one pass over m's rows, allocating dst when nil. It
// returns dst. The result and the updated m are bit-identical to
// m.MulVecT(v, dst) followed by m.AddOuterScaled(s, v, w): both kernels
// walk the rows in ascending order, each element of m is read for the
// product before the update writes it, and the kernels' zero-skips are
// kept (v[i] == 0 skips row i's product, s·v[i] == 0 its update). Two
// neighbouring rows that both take the product and the update share one
// pass, dst[j] adding row i's term before row i+1's; a row with a skip
// goes through the one-row path. dst must not alias v or w.
func (m *Matrix) MulVecTAddOuter(v Vector, s float64, w, dst Vector) Vector {
	mustLen(len(v), m.Rows, "Matrix.MulVecTAddOuter input")
	mustLen(len(w), m.Cols, "Matrix.MulVecTAddOuter outer")
	if dst == nil {
		dst = NewVector(m.Cols)
	}
	mustLen(len(dst), m.Cols, "Matrix.MulVecTAddOuter output")
	c := m.Cols
	dst, w = dst[:c], w[:c]
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*c:][:c]
		vi := v[i]
		sv := s * vi
		if vi != 0 && sv != 0 && i+1 < m.Rows {
			if vk, sk := v[i+1], s*v[i+1]; vk != 0 && sk != 0 {
				next := m.Data[(i+1)*c:][:c]
				for j, x := range row {
					y := next[j]
					d := dst[j]
					d += x * vi
					d += y * vk
					dst[j] = d
					row[j] = x + sv*w[j]
					next[j] = y + sk*w[j]
				}
				i++
				continue
			}
		}
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
	return dst
}

// AddOuterScaled adds s · u·wᵀ into m in place (rank-1 update) and returns m.
func (m *Matrix) AddOuterScaled(s float64, u, w Vector) *Matrix {
	mustLen(len(u), m.Rows, "AddOuterScaled rows")
	mustLen(len(w), m.Cols, "AddOuterScaled cols")
	c := m.Cols
	w = w[:c]
	for i := 0; i < m.Rows; i++ {
		su := s * u[i]
		if su == 0 {
			continue
		}
		row := m.Data[i*c:][:c]
		for j, x := range w {
			row[j] += su * x
		}
	}
	return m
}

// AddScaled adds s*b into m elementwise in place and returns m.
func (m *Matrix) AddScaled(s float64, b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
	return m
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SigmoidPrimeFromY returns the derivative of the logistic function expressed
// in terms of its output y = σ(x): σ'(x) = y(1−y).
func SigmoidPrimeFromY(y float64) float64 { return y * (1 - y) }

// Softmax writes the softmax of src into dst (allocating when nil) and
// returns dst. It is numerically stabilized by max subtraction.
func Softmax(src, dst Vector) Vector {
	if dst == nil {
		dst = NewVector(len(src))
	}
	mustLen(len(dst), len(src), "Softmax")
	if len(src) == 0 {
		return dst
	}
	maxv := src[0]
	for _, x := range src[1:] {
		if x > maxv {
			maxv = x
		}
	}
	sum := 0.0
	for i, x := range src {
		e := math.Exp(x - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

func mustLen(got, want int, what string) {
	if got != want {
		panic(fmt.Sprintf("mat: %s length mismatch: got %d want %d", what, got, want))
	}
}
